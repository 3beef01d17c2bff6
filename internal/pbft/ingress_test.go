package pbft

// Tests for the receive path: datagrams are decoded and authenticated on the
// transport's receive goroutine (internal/ingress) and the verdicts reach
// the event loop through the inbox.

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/egress"
	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/simnet"
)

// unstartedReplica builds replica id of a 4-replica group on net without
// starting its event loop, so a test may drive its handlers directly.
func unstartedReplica(t *testing.T, net *simnet.Network, dir *Directory, mode Mode, id message.NodeID) *Replica {
	t.Helper()
	cfg := testConfig()
	cfg.ID, cfg.N, cfg.Mode = id, 4, mode
	r := NewReplica(cfg, dir, net, kvservice.Factory)
	t.Cleanup(r.Stop) // Stop without Start is safe
	return r
}

func TestSerialIngressInvoke(t *testing.T) {
	// Ordered and read-only requests are served with every datagram
	// verified on the receive goroutine, and nothing is lost on the way
	// to the event loop.
	c := newTestCluster(t, 4, testConfig(), nil)
	cl := c.NewClient()
	for i := 1; i <= 5; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
	res := mustInvoke(t, cl, kvservice.Get(), true)
	if got := kvservice.DecodeU64(res); got != 5 {
		t.Fatalf("read-only get returned %d, want 5", got)
	}
	c.waitFrontier(t, []int{0, 1, 2, 3}, 5*time.Second, "replicas reach the frontier", nil)
	for i := 0; i < 4; i++ {
		if m := c.Replica(i).Metrics(); m.InboxDrops != 0 || m.MsgsDroppedBadAuth != 0 {
			t.Fatalf("replica %d lost traffic: inbox drops %d, bad auth %d",
				i, m.InboxDrops, m.MsgsDroppedBadAuth)
		}
	}
}

func TestSerialIngressViewChange(t *testing.T) {
	// BFT-PK through a view change: every message, view-change traffic
	// included, is signature-checked on the receive goroutine.
	cfg := testConfig()
	cfg.Mode = ModePK
	c := newTestCluster(t, 4, cfg, map[message.NodeID]Behavior{0: SilentPrimary})
	cl := c.NewClient()
	cl.MaxRetries = 30
	res := mustInvoke(t, cl, kvservice.Incr(), false)
	if got := kvservice.DecodeU64(res); got != 1 {
		t.Fatalf("incr -> %d", got)
	}
	if v := c.Replica(1).View(); v < 1 {
		t.Fatalf("system settled in view %d, expected >= 1", v)
	}
}

// TestStaleVerdictReverified pins the §4.3.2 rule on the event loop: a
// passing verdict stamped with the current key generation is trusted, one
// stamped with an older generation is verified again against the current
// keys.
func TestStaleVerdictReverified(t *testing.T) {
	net := simnet.New(simnet.WithSeed(1))
	t.Cleanup(net.Close)
	dir := NewDirectory(4)
	rx := unstartedReplica(t, net, dir, ModeMAC, 1)
	tx := unstartedReplica(t, net, dir, ModeMAC, 2)

	prep := &message.Prepare{View: 0, Seq: 1, Digest: crypto.DigestOf([]byte("batch")), Replica: 2}
	wire, _ := (&sealer{mode: ModeMAC, n: 4, ks: tx.ks, kp: tx.kp}).Seal(nil, egress.Vector, message.NoNode, prep)
	authentic, err := message.Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	forged := &message.Prepare{View: 0, Seq: 2, Digest: prep.Digest, Replica: 2,
		Auth: message.Auth{Kind: message.AuthVector, Vector: crypto.Authenticator{MACs: make([]crypto.MAC, 4)}}}

	cur := rx.ks.Generation()
	for _, c := range []struct {
		name      string
		m         message.Message
		gen       uint64
		wantDrops uint64
	}{
		{"forged, current generation: trusted", forged, cur, 0},
		{"authentic, stale generation: re-verified and kept", authentic, cur - 1, 0},
		{"forged, stale generation: re-verified and dropped", forged, cur - 1, 1},
	} {
		before := rx.metrics.MsgsDroppedBadAuth
		rx.onInbound(inbound{m: c.m, ok: true, gen: c.gen})
		if got := rx.metrics.MsgsDroppedBadAuth - before; got != c.wantDrops {
			t.Errorf("%s: %d bad-auth drops, want %d", c.name, got, c.wantDrops)
		}
	}
}

// TestStaleVoteReverifiedFromDatagram is the §4.3.2 rule for votes: a
// passing verdict stamped with an older key generation is decoded again
// from the datagram it arrived in and verified against the current keys;
// one stamped with the current generation is trusted.
func TestStaleVoteReverifiedFromDatagram(t *testing.T) {
	b := newVoteBed(t)
	d := b.prePrepared()
	authentic := prepareFrom(1, d)
	forged := (&message.Prepare{View: 0, Seq: 1, Digest: d, Replica: 2,
		Auth: message.Auth{Kind: message.AuthVector,
			Vector: crypto.Authenticator{MACs: make([]crypto.MAC, 4)}}}).Marshal()

	cur := b.r.ks.Generation()
	for _, c := range []struct {
		name      string
		raw       []byte
		gen       uint64
		wantDrops uint64
		wantVotes int
	}{
		// Replica 3's own prepare is the first vote.
		{"authentic, stale generation: re-verified and counted", authentic, cur - 1, 0, 2},
		{"forged, stale generation: re-verified and dropped", forged, cur - 1, 1, 2},
		{"forged, current generation: trusted", forged, cur, 0, 3},
	} {
		before := b.r.metrics.MsgsDroppedBadAuth
		im := inboundOf(decoded(t, c.raw), true, c.gen)
		if im.m != nil || len(im.raw) != len(c.raw) {
			t.Fatalf("%s: a vote did not travel as its datagram", c.name)
		}
		b.r.onInbound(im)
		if got := b.r.metrics.MsgsDroppedBadAuth - before; got != c.wantDrops {
			t.Errorf("%s: %d bad-auth drops, want %d", c.name, got, c.wantDrops)
		}
		s, _ := b.r.log.Peek(1)
		if got := s.PrepareDigestCount(d); got != c.wantVotes {
			t.Errorf("%s: %d prepares recorded, want %d", c.name, got, c.wantVotes)
		}
	}
}

func decoded(t *testing.T, raw []byte) message.Message {
	t.Helper()
	m, err := message.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestInboxOverflowCounted(t *testing.T) {
	// Flood an unstarted replica (its event loop consumes nothing) with
	// twice its inbox: every datagram is verified on the receive goroutine,
	// and the verdicts that do not fit must be counted.
	net := simnet.New(simnet.WithSeed(1))
	t.Cleanup(func() { net.Close() })
	cfg := testConfig()
	cfg.ID = 0
	cfg.N = 4
	dir := NewDirectory(4)
	r := NewReplica(cfg, dir, net, kvservice.Factory) // not started yet
	t.Cleanup(r.Stop)                                 // Stop without Start is safe

	attacker := newRawSender(net, message.ClientIDBase+9)
	payload := (&message.Request{
		Client:    message.ClientIDBase + 9,
		Timestamp: 1,
		Replier:   message.NoNode,
		Op:        kvservice.Get(),
	}).Marshal()
	for i := 0; i < 2*inboxCap; i++ {
		attacker.trans.Send(0, payload)
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.inboxDrops.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no inbox drops counted after flooding a full inbox")
		}
		time.Sleep(time.Millisecond)
	}
	// The counter must surface through the public snapshot too.
	r.Start()
	m := r.Metrics()
	if m.InboxDrops == 0 {
		t.Fatal("Metrics().InboxDrops = 0 after overflow")
	}
}
