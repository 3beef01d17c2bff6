package pbft

// Tests for the send path: messages are sealed into pooled wire buffers on
// the sending goroutine (internal/egress) and handed straight to the
// transport; plus the replier rotation the client relies on.

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/crypto"
	"repro/internal/egress"
	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/simnet"
)

// captureTransport records every datagram handed to it and releases owned
// buffers at once, as udpnet does.
type captureTransport struct {
	mu    sync.Mutex
	wires [][]byte
}

func (t *captureTransport) Self() message.NodeID { return 0 }
func (t *captureTransport) Close()               {}
func (t *captureTransport) Send(_ message.NodeID, p []byte) {
	t.mu.Lock()
	t.wires = append(t.wires, bytes.Clone(p))
	t.mu.Unlock()
}
func (t *captureTransport) Multicast(_ []message.NodeID, p []byte) { t.Send(message.NoNode, p) }
func (t *captureTransport) SendOwned(dst message.NodeID, p []byte, release func([]byte)) {
	t.Send(dst, p)
	release(p)
}
func (t *captureTransport) MulticastOwned(dsts []message.NodeID, p []byte, release func([]byte)) {
	t.Multicast(dsts, p)
	release(p)
}

// last returns the most recent datagram.
func (t *captureTransport) last() []byte {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.wires[len(t.wires)-1]
}

// discardTransport drops every datagram and releases owned buffers at once.
type discardTransport struct{}

func (discardTransport) Self() message.NodeID               { return 0 }
func (discardTransport) Close()                             {}
func (discardTransport) Send(message.NodeID, []byte)        {}
func (discardTransport) Multicast([]message.NodeID, []byte) {}
func (discardTransport) SendOwned(_ message.NodeID, p []byte, release func([]byte)) {
	release(p)
}
func (discardTransport) MulticastOwned(_ []message.NodeID, p []byte, release func([]byte)) {
	release(p)
}

// replicaStage is an egress stage sealing as replica r does, over t.
func replicaStage(r *Replica, t *captureTransport) *egress.Pipeline {
	return egress.New(0, 0, &sealer{mode: r.cfg.Mode, n: r.n, ks: r.ks, kp: r.kp}, t)
}

// verifiesAt decodes wire and reports whether replica rx accepts it.
func verifiesAt(t *testing.T, rx *Replica, wire []byte) bool {
	t.Helper()
	m, err := message.Unmarshal(wire)
	if err != nil {
		t.Fatalf("sealed datagram does not decode: %v", err)
	}
	return rx.verify(m)
}

func TestSerialEgressInvoke(t *testing.T) {
	// Replies are sealed on the event loop; they must reach the client, and
	// nothing is refused on the way.
	c := newTestCluster(t, 4, testConfig(), nil)
	cl := c.NewClient()
	for i := 1; i <= 5; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
	for i := 0; i < 4; i++ {
		if d := c.Replica(i).Metrics().OutboxDrops; d != 0 {
			t.Fatalf("replica %d refused %d sends", i, d)
		}
	}
}

func TestSerialEgressViewChange(t *testing.T) {
	// A view change while keys rotate: view-change, new-view and
	// retransmitted traffic is sealed under whatever keys are current when
	// it is sent.
	cfg := testConfig()
	cfg.KeyRefreshInterval = 10 * tickInterval
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

// TestSealedKindsVerify sends one message of each kind through a replica's
// egress stage and requires the receiving replica to accept it, in both
// authentication modes.
func TestSealedKindsVerify(t *testing.T) {
	for _, mode := range []Mode{ModeMAC, ModePK} {
		t.Run(mode.String(), func(t *testing.T) {
			net := simnet.New(simnet.WithSeed(1))
			t.Cleanup(net.Close)
			dir := NewDirectory(4)
			rx := unstartedReplica(t, net, dir, mode, 0)
			tx := unstartedReplica(t, net, dir, mode, 1)
			ct := &captureTransport{}
			out := replicaStage(tx, ct)

			prep := &message.Prepare{View: 0, Seq: 1, Digest: crypto.DigestOf([]byte("b")), Replica: 1}
			out.Multicast(dir.ReplicaIDs(), prep, egress.Vector)
			vector := ct.last()
			if !verifiesAt(t, rx, vector) {
				t.Error("Vector: multicast prepare rejected")
			}

			ack := &message.ViewChangeAck{View: 1, Replica: 1, Source: 2}
			out.Send(0, ack, egress.Point)
			if !verifiesAt(t, rx, ct.last()) {
				t.Error("Point: view-change ack rejected")
			}

			nk := &message.NewKey{Replica: 1, Epoch: 1, Counter: 1}
			out.Multicast(dir.ReplicaIDs(), nk, egress.Sign)
			if !verifiesAt(t, rx, ct.last()) {
				t.Error("Sign: new-key announcement rejected")
			}

			out.SendRaw(0, vector)
			if raw := ct.last(); !bytes.Equal(raw, vector) || !verifiesAt(t, rx, raw) {
				t.Error("Raw: relayed bytes changed or rejected")
			}
		})
	}
}

// TestEgressSendAfterRefreshVerifies rotates the key replica 0 expects from
// replica 1 (§4.3.1): a prepare sealed before the rotation is rejected as
// stale, and the same prepare sent after it verifies under the new key.
func TestEgressSendAfterRefreshVerifies(t *testing.T) {
	net := simnet.New(simnet.WithSeed(1))
	t.Cleanup(net.Close)
	dir := NewDirectory(4)
	rx := unstartedReplica(t, net, dir, ModeMAC, 0)
	tx := unstartedReplica(t, net, dir, ModeMAC, 1)
	ct := &captureTransport{}
	out := replicaStage(tx, ct)
	prep := &message.Prepare{View: 0, Seq: 1, Digest: crypto.DigestOf([]byte("b")), Replica: 1}

	out.Multicast(dir.ReplicaIDs(), prep, egress.Vector)
	before := ct.last()
	key := rx.ks.RefreshIn(1, 1, 99)
	tx.ks.SetOut(0, key, 1)
	out.Multicast(dir.ReplicaIDs(), prep, egress.Vector)

	if verifiesAt(t, rx, before) {
		t.Error("prepare sealed under the old key verified after the refresh")
	}
	if !verifiesAt(t, rx, ct.last()) {
		t.Error("prepare sealed after the refresh rejected")
	}
}

// TestEgressAllocationBudget pins what sealing and sending a prepare costs
// in allocations: nothing, through a transport that discards and releases
// its buffers and through the simulator, which copies the datagram into
// its send slab and releases the wire buffer before returning.
func TestEgressAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	net := simnet.New(simnet.WithSeed(1))
	t.Cleanup(net.Close)
	dir := NewDirectory(4)
	tx := unstartedReplica(t, net, dir, ModeMAC, 1)
	seal := &sealer{mode: ModeMAC, n: 4, ks: tx.ks, kp: tx.kp}
	for id := message.ClientIDBase + 50; id < message.ClientIDBase+54; id++ {
		ep := net.Attach(id, func([]byte) {})
		t.Cleanup(ep.Close)
	}
	sim := egress.New(0, 0, seal, net.Attach(message.ClientIDBase+49, func([]byte) {}))
	dsts := []message.NodeID{message.ClientIDBase + 50, message.ClientIDBase + 51,
		message.ClientIDBase + 52, message.ClientIDBase + 53}
	prep := &message.Prepare{View: 0, Seq: 1, Digest: crypto.DigestOf([]byte("b")), Replica: 1}

	for _, c := range []struct {
		name string
		out  *egress.Pipeline
		max  float64
	}{
		{"releasing transport", egress.New(0, 0, seal, discardTransport{}), 0},
		{"simnet", sim, 0},
	} {
		got := testing.AllocsPerRun(200, func() { c.out.Multicast(dsts, prep, egress.Vector) })
		if got > c.max {
			t.Errorf("%s: %v allocs per sealed multicast, want at most %v", c.name, got, c.max)
		} else {
			t.Logf("%s: %v allocs per sealed multicast", c.name, got)
		}
	}
}

func TestEgressSurvivesKeyRefresh(t *testing.T) {
	// Key refreshment (§4.3.1) rotates the copy-on-write key store while
	// the event loop seals; every send uses the keys
	// current when it is sealed, so the protocol keeps making progress
	// across aggressive refresh intervals.
	cfg := testConfig()
	cfg.KeyRefreshInterval = 10 * tickInterval
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	for i := 1; i <= 20; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d -> %d under key refresh", i, got)
		}
	}
}

func TestPickReplierRoundRobin(t *testing.T) {
	// §5.1.1 load balancing: the designated replier must rotate through the
	// replicas in strict rotation — over any window of n picks each replica
	// is designated exactly once. (The seed-scrambled LCG this replaces
	// skewed the distribution through modulo bias.)
	net := simnet.New(simnet.WithSeed(1))
	t.Cleanup(func() { net.Close() })
	dir := NewDirectory(4)
	cl := NewClient(message.ClientIDBase, dir, net, ModeMAC, Options{})
	t.Cleanup(cl.Close)

	first := cl.pickReplier()
	counts := make(map[message.NodeID]int)
	counts[first]++
	prev := first
	for i := 1; i < 40; i++ {
		r := cl.pickReplier()
		if want := message.NodeID((int(prev) + 1) % 4); r != want {
			t.Fatalf("pick %d: got replica %d after %d, want %d", i, r, prev, want)
		}
		counts[r]++
		prev = r
	}
	for id := message.NodeID(0); id < 4; id++ {
		if counts[id] != 10 {
			t.Fatalf("replica %d designated %d times in 40 picks, want 10", id, counts[id])
		}
	}
}
