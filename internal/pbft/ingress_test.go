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

func TestInboxOverflowCounted(t *testing.T) {
	// Flood an unstarted replica (its event loop consumes nothing) past its
	// tiny inbox: every datagram is verified on the receive goroutine, and
	// the verdicts that do not fit must be counted. The receive path is the
	// same whether execution runs on the event loop ("serial") or on the
	// executor stage ("pipelined"); both must count and report the drops.
	for _, staged := range []bool{false, true} {
		name := "serial"
		if staged {
			name = "pipelined"
		}
		t.Run(name, func(t *testing.T) {
			net := simnet.New(simnet.WithSeed(1))
			t.Cleanup(func() { net.Close() })
			cfg := testConfig()
			cfg.ID = 0
			cfg.N = 4
			cfg.InboxCap = 4
			cfg.Opt.ExecPipeline = staged
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
			for i := 0; i < 256; i++ {
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
		})
	}
}
