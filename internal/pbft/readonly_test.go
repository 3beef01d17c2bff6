package pbft

// Regression tests for the §5.1.3 read-only path: replica-side demotion of
// mutating requests flagged read-only, survival of queued read-only
// requests across a view change, and reads that arrive after a view change
// rolled back a write the client already holds a certificate for.

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/simnet"
)

// TestMutatingReadOnlyDemotedInOneRoundTrip pins the headline fix: a
// request FLAGGED read-only whose operation mutates state used to be
// silently dropped — not queued read-only (IsReadOnly said no), not
// enqueued read-write, no reply — so the client burned a full RetryTimeout
// before its retransmission demoted it. §5.1.3 demotes at the replica: the
// request falls through to the ordered read-write path immediately and the
// client gets a correct reply in one round trip.
func TestMutatingReadOnlyDemotedInOneRoundTrip(t *testing.T) {
	c := newTestCluster(t, 4, testConfig(), nil)
	cl := c.NewClient()
	// With zero retries and a retry timeout far beyond the test budget, the
	// only way this invoke can succeed is the first transmission.
	cl.RetryTimeout = 30 * time.Second
	cl.MaxRetries = 0

	start := time.Now()
	res, err := cl.Invoke(kvservice.Incr(), true) // a write, flagged read-only
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("demoted invoke failed (request was dropped): %v", err)
	}
	if got := kvservice.DecodeU64(res); got != 1 {
		t.Fatalf("demoted incr returned %d, want 1", got)
	}
	if elapsed >= cl.RetryTimeout {
		t.Fatalf("reply took %v: demotion happened via client retry, not at the replica", elapsed)
	}

	// The write landed exactly once, through consensus.
	res = mustInvoke(t, cl, kvservice.Get(), true)
	if got := kvservice.DecodeU64(res); got != 1 {
		t.Fatalf("state after demoted write: counter=%d, want 1", got)
	}
}

// TestReadOnlyQueueSurvivesViewChange queues a read-only request behind a
// tentative (uncommitted) execution, forces a view change, and requires the
// queued request to be answered — in one client round trip — once the new
// view commits. §5.1.3's quiescence rule must hold ACROSS the view change,
// not drop the queue with it.
func TestReadOnlyQueueSurvivesViewChange(t *testing.T) {
	cfg := testConfig()
	net := simnet.New(simnet.WithSeed(cfg.Seed + 7))
	t.Cleanup(func() { net.Close() })

	// Drop every view-0 commit: batches prepare and execute tentatively but
	// can never commit in view 0, so lastExec stays ahead of lastCommitted
	// and read-only requests queue behind quiescence.
	net.SetFilter(func(src, dst message.NodeID, p []byte) ([]byte, bool) {
		if m, err := message.Unmarshal(p); err == nil {
			if cm, ok := m.(*message.Commit); ok && cm.View == 0 {
				return nil, false
			}
		}
		return p, true
	})

	c := NewCluster(net, cfg, 4, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)

	// A tentative write: the client accepts 2f+1 tentative replies (§5.1.2)
	// even though the batch can never commit in this view.
	clA := c.NewClient()
	clA.RetryTimeout = 5 * time.Second
	if got := kvservice.DecodeU64(mustInvoke(t, clA, kvservice.Incr(), false)); got != 1 {
		t.Fatalf("tentative incr -> %d", got)
	}
	waitReplicas(t, c, 1, 3, "tentative execution", func(r *Replica) bool {
		var ok bool
		r.do(func() { ok = r.lastExec == 1 && r.lastCommitted == 0 })
		return ok
	})

	// The read-only request must queue (state is not quiescent) and must
	// NOT need a client retry to complete: its answer comes from the queue.
	clB := c.NewClient()
	clB.RetryTimeout = 30 * time.Second
	clB.MaxRetries = 0
	type invokeResult struct {
		res []byte
		err error
	}
	done := make(chan invokeResult, 1)
	go func() {
		res, err := clB.Invoke(kvservice.Get(), true)
		done <- invokeResult{res, err}
	}()
	waitReplicas(t, c, 1, 3, "read-only request queued", func(r *Replica) bool {
		var n int
		r.do(func() { n = len(r.roQueue) })
		return n > 0
	})

	// Cut off the primary and push a request through the backups: their
	// view-change timers fire and the group moves to view 1, where commits
	// flow again. The rolled-back tentative write re-commits there.
	net.Isolate(0)
	clC := c.NewClient()
	clC.RetryTimeout = 50 * time.Millisecond
	clC.MaxRetries = 60
	mustInvoke(t, clC, kvservice.Noop(), false)

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("queued read-only request was dropped across the view change: %v", r.err)
		}
		if got := kvservice.DecodeU64(r.res); got != 1 {
			t.Fatalf("read-only reply after view change: counter=%d, want 1", got)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("queued read-only request never answered after the view change")
	}
	if v := c.Replica(1).View(); v < 1 {
		t.Fatalf("no view change happened (view %d); test exercised nothing", v)
	}
}

// TestReadOnlyAfterRollbackSeesCertifiedWrite drives the rollback that
// let a read-only request observe state older than a write the client had
// already certified. The write executes tentatively everywhere (commits are
// withheld), so the client gets its reply certificate; then a view change
// rolls every replica back to the seq-0 snapshot and is held open. A read
// arriving now finds lastExec == lastCommitted == 0. Marked with lastExec,
// it was answered at once from the empty state; marked with the highest
// sequence number ever executed, it waits until the write recommits in the
// new view (§5.1.3).
func TestReadOnlyAfterRollbackSeesCertifiedWrite(t *testing.T) {
	cfg := testConfig()
	net := simnet.New(simnet.WithSeed(cfg.Seed + 7))
	t.Cleanup(func() { net.Close() })

	// View-0 commits never arrive, and while hold is set no view-change
	// message does either, so the view change stays pending.
	var hold atomic.Bool
	net.SetFilter(func(src, dst message.NodeID, p []byte) ([]byte, bool) {
		if m, err := message.Unmarshal(p); err == nil {
			switch m := m.(type) {
			case *message.Commit:
				return p, m.View != 0
			case *message.ViewChange:
				return p, !hold.Load()
			}
		}
		return p, true
	})

	c := NewCluster(net, cfg, 4, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)

	clA := c.NewClient()
	clA.RetryTimeout = 5 * time.Second
	if got := kvservice.DecodeU64(mustInvoke(t, clA, kvservice.Incr(), false)); got != 1 {
		t.Fatalf("tentative incr -> %d", got)
	}
	waitReplicas(t, c, 0, 3, "tentative execution", func(r *Replica) bool {
		var ok bool
		r.do(func() { ok = r.lastExec == 1 && r.lastCommitted == 0 })
		return ok
	})

	// Every replica starts the view change, rolling its tentative write
	// back to the seq-0 snapshot.
	hold.Store(true)
	for i := 0; i < c.N(); i++ {
		r := c.Replica(i)
		var exec message.Seq
		r.do(func() {
			r.startViewChange(1)
			exec = r.lastExec
		})
		if exec != 0 {
			t.Fatalf("replica %d: lastExec %d after the view change, want a rollback to 0", i, exec)
		}
	}

	clB := c.NewClient()
	clB.RetryTimeout = 30 * time.Second
	clB.MaxRetries = 0
	type invokeResult struct {
		res []byte
		err error
	}
	done := make(chan invokeResult, 1)
	go func() {
		res, err := clB.Invoke(kvservice.Get(), true)
		done <- invokeResult{res, err}
	}()

	// The read must queue behind the rolled-back write, not answer from
	// the rolled-back state.
	deadline := time.After(10 * time.Second)
	for queued := 0; queued < c.N(); {
		select {
		case r := <-done:
			t.Fatalf("read-only Get answered before the certified write recommitted: counter=%d, err=%v",
				kvservice.DecodeU64(r.res), r.err)
		case <-deadline:
			t.Fatal("read-only request never queued")
		case <-time.After(2 * time.Millisecond):
		}
		queued = 0
		for i := 0; i < c.N(); i++ {
			r := c.Replica(i)
			r.do(func() {
				if len(r.roQueue) > 0 {
					queued++
				}
			})
		}
	}

	// Let the view change finish: the write recommits in view 1 and the
	// queued read answers with it.
	hold.Store(false)
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("queued read-only request failed: %v", r.err)
		}
		if got := kvservice.DecodeU64(r.res); got != 1 {
			t.Fatalf("read-only Get after the view change: counter=%d, want 1", got)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("queued read-only request never answered after the view change")
	}
}

// waitReplicas polls cond on replicas [from, to] until it holds everywhere.
func waitReplicas(t *testing.T, c *Cluster, from, to int, what string,
	cond func(*Replica) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		all := true
		for i := from; i <= to; i++ {
			if !cond(c.Replica(i)) {
				all = false
				break
			}
		}
		if all {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s on replicas %d..%d", what, from, to)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
