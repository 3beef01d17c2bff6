package pbft

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/kvservice"
	"repro/internal/message"
)

// requestTap counts the request datagrams each replica sends to the
// primary of view 0 and drops the client's request datagrams to it for as
// long as drop says so.
type requestTap struct {
	mu     sync.Mutex
	relays map[message.NodeID]int
	drop   func(nth int) bool // nth counts client→primary requests from 1
	nth    int
}

func tapRequests(c *Cluster, drop func(nth int) bool) *requestTap {
	tp := &requestTap{relays: make(map[message.NodeID]int), drop: drop}
	c.Net.SetFilter(func(src, dst message.NodeID, p []byte) ([]byte, bool) {
		if dst != 0 || len(p) == 0 || message.Type(p[0]) != message.TRequest {
			return p, true
		}
		tp.mu.Lock()
		defer tp.mu.Unlock()
		if !src.IsClient() {
			tp.relays[src]++
			return p, true
		}
		tp.nth++
		return p, tp.drop == nil || !tp.drop(tp.nth)
	})
	return tp
}

func (tp *requestTap) relaysFrom(id message.NodeID) int {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	return tp.relays[id]
}

// write4k is a 4 KiB blob write: above the inline threshold, so it is
// transmitted separately (§5.1.5).
func write4k(i int) []byte {
	return kvservice.WriteBlob(bytes.Repeat([]byte{byte(i)}, 4096))
}

func requireView(t *testing.T, c *Cluster, want message.View) {
	t.Helper()
	for i := range c.Replicas {
		if v := c.Replica(i).View(); v != want {
			t.Fatalf("replica %d is in view %d, want %d", i, v, want)
		}
	}
}

// TestSeparateRequestsAreNotRelayed pins that backups never relay a
// separately transmitted request: the client already sent it to the
// primary directly.
func TestSeparateRequestsAreNotRelayed(t *testing.T) {
	c := newTestCluster(t, 4, testConfig(), nil)
	tp := tapRequests(c, nil)
	cl := c.NewClient()
	const n = 20
	for i := 0; i < n; i++ {
		mustInvoke(t, cl, write4k(i), false)
	}
	c.waitFrontier(t, []int{0, 1, 2, 3}, 5*time.Second, "every replica to execute the writes", nil)
	for id := message.NodeID(1); id < 4; id++ {
		if got := tp.relaysFrom(id); got != 0 {
			t.Errorf("backup %d relayed %d requests to the primary over %d 4 KiB writes, want 0", id, got, n)
		}
	}
	requireView(t, c, 0)
}

// TestBackupsRelayMissedInlineRequest is the relay case of §4.1: the
// primary misses every client transmission of an inline-sized request, so
// the backups, which see it on the client's retransmission, relay it and it
// executes without a view change. Which backups relay depends on arrival
// order: one whose pre-prepare for the request arrives before the
// retransmission has nothing left to relay. So the test asserts what §4.1
// guarantees: some backup relays, none relays twice, and the request runs
// in view 0.
func TestBackupsRelayMissedInlineRequest(t *testing.T) {
	c := newTestCluster(t, 4, testConfig(), nil)
	tp := tapRequests(c, func(int) bool { return true })
	cl := c.NewClient()
	if got := kvservice.DecodeU64(mustInvoke(t, cl, kvservice.Incr(), false)); got != 1 {
		t.Fatalf("incr returned %d, want 1", got)
	}
	c.waitFrontier(t, []int{0, 1, 2, 3}, 5*time.Second, "every replica to execute the request", nil)
	relays := 0
	for id := message.NodeID(1); id < 4; id++ {
		got := tp.relaysFrom(id)
		if got > 1 {
			t.Errorf("backup %d relayed the request %d times, want at most 1", id, got)
		}
		relays += got
	}
	if relays == 0 {
		t.Error("no backup relayed the request, yet the primary never received it from the client")
	}
	requireView(t, c, 0)
}

// TestLostSeparateRequestRetransmitted drops only the client's first
// datagram of a 4 KiB request to the primary. No backup relays it; the
// client's retransmission, due before the backups' view-change timers
// expire, reaches the primary and the request executes in view 0.
func TestLostSeparateRequestRetransmitted(t *testing.T) {
	cfg := testConfig()
	cfg.ViewChangeTimeout = 0 // the default, which the premise below needs
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	if vct := c.Replica(1).cfg.ViewChangeTimeout; vct <= cl.RetryTimeout {
		t.Fatalf("view-change timeout %v does not outlast the client's retry timeout %v", vct, cl.RetryTimeout)
	}
	tp := tapRequests(c, func(nth int) bool { return nth == 1 })
	mustInvoke(t, cl, write4k(1), false)
	tp.mu.Lock()
	sent := tp.nth
	tp.mu.Unlock()
	if sent < 2 {
		t.Errorf("the client sent the primary %d transmissions, want the retransmission too", sent)
	}
	for id := message.NodeID(1); id < 4; id++ {
		if got := tp.relaysFrom(id); got != 0 {
			t.Errorf("backup %d relayed the request %d times, want 0", id, got)
		}
	}
	requireView(t, c, 0)
}

// TestSeparateRequestSurvivesCutPrimaryLink cuts the client→primary link
// for good. Without relays the primary never hears a 4 KiB request, so the
// backups' view-change timers expire and the next primary, which received
// the request directly, orders it (§4.4).
func TestSeparateRequestSurvivesCutPrimaryLink(t *testing.T) {
	c := newTestCluster(t, 4, testConfig(), nil)
	cl := c.NewClient()
	c.Net.SetFilter(func(src, dst message.NodeID, p []byte) ([]byte, bool) {
		return p, !(src == cl.ID() && dst == 0)
	})
	mustInvoke(t, cl, write4k(1), false)
	if v := c.Replica(1).View(); v == 0 {
		t.Fatal("request executed in view 0, though the primary never received it")
	}
}
