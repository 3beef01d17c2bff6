package pbft

// Tests for the defenses of §5.5 (denial of service, faulty clients) and
// the authentication rules of §3.2.2.

import (
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// rawSender lets tests inject hand-crafted datagrams as an attacker would.
type rawSender struct {
	trans transport.Transport
}

func newRawSender(net *simnet.Network, id message.NodeID) *rawSender {
	return &rawSender{trans: net.Attach(id, func([]byte) {})}
}

func TestForgedRequestRejected(t *testing.T) {
	// A request whose authenticator was computed with the wrong keys must
	// not execute.
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)

	attacker := newRawSender(c.Net, message.ClientIDBase+77)
	forged := &message.Request{
		Client:    message.ClientIDBase + 78, // claims to be someone else
		Timestamp: 1,
		Replier:   message.NoNode,
		Op:        kvservice.Incr(),
	}
	// Authenticator computed with the attacker's own keys, not the victim's.
	ks := crypto.NewKeyStore(uint32(message.ClientIDBase + 77))
	for i := 0; i < 4; i++ {
		ks.InstallInitial(uint32(i))
	}
	forged.Auth = message.Auth{Kind: message.AuthVector, Vector: ks.MakeAuthenticator(4, forged.Payload())}
	for i := 0; i < 4; i++ {
		attacker.trans.Send(message.NodeID(i), forged.Marshal())
	}
	time.Sleep(150 * time.Millisecond)

	cl := c.NewClient()
	res := mustInvoke(t, cl, kvservice.Get(), true)
	if got := kvservice.DecodeU64(res); got != 0 {
		t.Fatalf("forged increment executed: counter=%d", got)
	}
	m := c.Replica(0).Metrics()
	if m.MsgsDroppedBadAuth == 0 {
		t.Fatal("forged message was not counted as dropped")
	}
}

func TestForgedPrePrepareRejected(t *testing.T) {
	// An attacker impersonating the primary cannot inject batches.
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)

	attacker := newRawSender(c.Net, message.ClientIDBase+99)
	evil := &message.Request{Client: message.ClientIDBase + 99, Timestamp: 1, Op: kvservice.Incr()}
	pp := &message.PrePrepare{
		View: 0, Seq: 1,
		Inline:  []message.Request{*evil},
		Replica: 0, // claims to be the primary
	}
	pp.Auth = message.Auth{Kind: message.AuthVector,
		Vector: crypto.Authenticator{MACs: make([]crypto.MAC, 4)}} // garbage MACs
	for i := 1; i < 4; i++ {
		attacker.trans.Send(message.NodeID(i), pp.Marshal())
	}
	time.Sleep(150 * time.Millisecond)
	cl := c.NewClient()
	res := mustInvoke(t, cl, kvservice.Get(), true)
	if kvservice.DecodeU64(res) != 0 {
		t.Fatal("forged pre-prepare caused execution")
	}
}

func TestReplayedRequestExecutesOnce(t *testing.T) {
	// Capture a legitimate request and replay it: the timestamp cache must
	// suppress re-execution (§5.5).
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)

	var captured []byte
	c.Net.SetFilter(func(src, dst message.NodeID, p []byte) ([]byte, bool) {
		if src.IsClient() && captured == nil {
			m, err := message.Unmarshal(p)
			if err == nil {
				if _, ok := m.(*message.Request); ok {
					captured = append([]byte(nil), p...)
				}
			}
		}
		return p, true
	})
	cl := c.NewClient()
	mustInvoke(t, cl, kvservice.Incr(), false)
	c.Net.SetFilter(nil)
	if captured == nil {
		t.Fatal("no request captured")
	}

	attacker := newRawSender(c.Net, message.ClientIDBase+55)
	for round := 0; round < 3; round++ {
		for i := 0; i < 4; i++ {
			attacker.trans.Send(message.NodeID(i), captured)
		}
	}
	time.Sleep(200 * time.Millisecond)
	res := mustInvoke(t, cl, kvservice.Get(), true)
	if got := kvservice.DecodeU64(res); got != 1 {
		t.Fatalf("replay executed: counter=%d, want 1", got)
	}
}

func TestFaultyClientCannotMarkWriteReadOnly(t *testing.T) {
	// §5.1.3: a faulty client marking a write as read-only must not corrupt
	// state through the read-only fast path. The service-specific IsReadOnly
	// upcall demotes the request to the ordered read-write path, so it
	// executes exactly once, through consensus — never unordered, and never
	// more than once however often it is replayed.
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)

	// Craft a read-only-flagged increment by hand.
	ks := crypto.NewKeyStore(uint32(message.ClientIDBase + 5))
	for i := 0; i < 4; i++ {
		ks.InstallInitial(uint32(i))
	}
	evil := &message.Request{
		Client:    message.ClientIDBase + 5,
		Timestamp: 1,
		Flags:     message.FlagReadOnly,
		Replier:   message.NoNode,
		Op:        kvservice.Incr(), // a write!
	}
	evil.Auth = message.Auth{Kind: message.AuthVector, Vector: ks.MakeAuthenticator(4, evil.Payload())}
	sender := newRawSender(c.Net, message.ClientIDBase+5)
	send := func() {
		for i := 0; i < 4; i++ {
			sender.trans.Send(message.NodeID(i), evil.Marshal())
		}
	}
	send()

	// The demoted write lands exactly once via the ordered path.
	cl := c.NewClient()
	deadline := time.Now().Add(5 * time.Second)
	for {
		res := mustInvoke(t, cl, kvservice.Get(), true)
		if kvservice.DecodeU64(res) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("demoted write never executed: counter=%d, want 1",
				kvservice.DecodeU64(res))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Replays of the same timestamp must not execute again (§2.3.3).
	send()
	send()
	time.Sleep(150 * time.Millisecond)
	res := mustInvoke(t, cl, kvservice.Get(), true)
	if got := kvservice.DecodeU64(res); got != 1 {
		t.Fatalf("replayed demoted write executed again: counter=%d, want 1", got)
	}
}

func TestQueueFairnessOneSlotPerClient(t *testing.T) {
	// §5.5: the request queue retains only the newest request per client, so
	// one client cannot monopolize the queue.
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	r := c.Replica(0)
	r.do(func() {
		cli := message.ClientIDBase + 9
		for ts := uint64(1); ts <= 10; ts++ {
			req := &message.Request{Client: cli, Timestamp: ts, Op: kvservice.Incr()}
			r.log.StoreRequest(req)
			r.enqueueRequest(req)
		}
		if r.queue.Len() != 1 {
			t.Errorf("queue holds %d entries for one client, want 1", r.queue.Len())
		}
	})
}

func TestLossyAndDuplicatingNetwork(t *testing.T) {
	// End-to-end under 20% loss + 20% duplication + jitter: correctness and
	// exactly-once must hold (§2.1's network model).
	cfg := testConfig()
	net := simnet.New(simnet.WithSeed(77), simnet.WithDefaults(simnet.LinkConfig{
		LossRate: 0.2, DupRate: 0.2, Jitter: 2 * time.Millisecond,
	}))
	c := NewCluster(net, cfg, 4, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(func() { c.Stop(); net.Close() })

	cl := c.NewClient()
	cl.RetryTimeout = 80 * time.Millisecond
	cl.MaxRetries = 40
	for i := 1; i <= 10; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d -> %d under loss+dup", i, got)
		}
	}
}

func TestWANProfileCluster(t *testing.T) {
	// A wide-area link model (10ms +- 2ms, 1 Gbit/s): the protocol must
	// still complete, just slower — sanity for simnet's latency and
	// bandwidth model.
	cfg := testConfig()
	cfg.ViewChangeTimeout = 2 * time.Second
	net := simnet.New(simnet.WithSeed(13), simnet.WithDefaults(simnet.LinkConfig{
		Latency: 10 * time.Millisecond, Jitter: 2 * time.Millisecond, BytesPerSec: 125e6,
	}))
	c := NewCluster(net, cfg, 4, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(func() { c.Stop(); net.Close() })
	cl := c.NewClient()
	cl.RetryTimeout = 2 * time.Second

	start := time.Now()
	mustInvoke(t, cl, kvservice.Incr(), false)
	el := time.Since(start)
	// 4 one-way delays minimum (request, pre-prepare, prepare, reply).
	if el < 35*time.Millisecond {
		t.Fatalf("latency %v impossibly low for a 10ms-per-hop network", el)
	}
	if el > 500*time.Millisecond {
		t.Fatalf("latency %v unreasonably high", el)
	}
}
