package pbft

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/simnet"
)

func TestCascadingViewChanges(t *testing.T) {
	// n=7 tolerates f=2: replicas 0 and 1 are silent when primary, so the
	// group must cascade through views 0 and 1 and settle on replica 2.
	cfg := testConfig()
	c := newTestCluster(t, 7, cfg, map[message.NodeID]Behavior{
		0: SilentPrimary, 1: SilentPrimary,
	})
	cl := c.NewClient()
	cl.MaxRetries = 30
	for i := 1; i <= 4; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d -> %d", i, got)
		}
	}
	if v := c.Replica(2).View(); v < 2 {
		t.Fatalf("system settled in view %d, expected >= 2", v)
	}
}

func TestViewChangeUnderLoad(t *testing.T) {
	// Kill the primary while several clients are in flight: every client's
	// operations must eventually complete exactly once.
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)

	const nClients = 5
	const each = 8
	var wg sync.WaitGroup
	errCh := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		cl := c.NewClient()
		cl.MaxRetries = 30
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := cl.Invoke(kvservice.Incr(), false); err != nil {
					errCh <- err
					return
				}
			}
			errCh <- nil
		}()
	}
	time.Sleep(30 * time.Millisecond)
	c.Net.Isolate(0) // primary dies mid-stream
	wg.Wait()
	for i := 0; i < nClients; i++ {
		if err := <-errCh; err != nil {
			t.Fatalf("client: %v", err)
		}
	}
	cl := c.NewClient()
	cl.MaxRetries = 30
	res := mustInvoke(t, cl, kvservice.Get(), true)
	if got := kvservice.DecodeU64(res); got != nClients*each {
		t.Fatalf("counter %d, want %d (lost or duplicated ops across view change)", got, nClients*each)
	}
}

func TestPKModeViewChange(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = ModePK
	c := newTestCluster(t, 4, cfg, map[message.NodeID]Behavior{0: SilentPrimary})
	cl := c.NewClient()
	cl.MaxRetries = 30
	for i := 1; i <= 3; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d -> %d", i, got)
		}
	}
}

func TestSuccessiveViewChanges(t *testing.T) {
	// Kill primaries one after another (healing in between): views must
	// keep advancing and state must survive every transition.
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.MaxRetries = 40

	count := uint64(0)
	incr := func(tag string) {
		count++
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != count {
			t.Fatalf("%s: incr -> %d, want %d", tag, got, count)
		}
	}
	incr("view 0")
	for round := 0; round < 2; round++ {
		// Figure out the current primary from a live replica's view.
		v := c.Replica(1).View()
		primary := int(uint64(v) % 4)
		c.Net.Isolate(message.NodeID(primary))
		incr("after kill")
		incr("stable in new view")
		c.Net.Heal()
		incr("after heal")
	}
}

func TestViewChangePropagatesPreparedRequest(t *testing.T) {
	// A request that prepared (but had not committed everywhere) before the
	// view change must keep its sequence number in the new view — observed
	// indirectly: no increment is lost or duplicated across the change.
	cfg := testConfig()
	cfg.Opt.TentativeExec = true
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.MaxRetries = 40

	for i := 1; i <= 3; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	// Cut the primary's outbound commits only: requests can prepare but the
	// primary's commit is missing; then isolate it fully.
	c.Net.Isolate(0)
	for i := 4; i <= 6; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d -> %d", i, got)
		}
	}
}

func TestClientTracksViewAcrossFailover(t *testing.T) {
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.MaxRetries = 40

	mustInvoke(t, cl, kvservice.Incr(), false)
	c.Net.Isolate(0)
	mustInvoke(t, cl, kvservice.Incr(), false) // slow: discovers new primary

	// Now the client should know the new view: the next op must be fast
	// (sent straight to the new primary, no retransmission needed).
	start := time.Now()
	mustInvoke(t, cl, kvservice.Incr(), false)
	if el := time.Since(start); el > cl.RetryTimeout {
		t.Fatalf("op after failover took %v — client did not track the new primary", el)
	}
}

func TestQSetGrowthBounded(t *testing.T) {
	// Repeated view changes without progress must not grow P/Q entries
	// per sequence number without bound for the same digest.
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.MaxRetries = 40
	mustInvoke(t, cl, kvservice.Incr(), false)

	r := c.Replica(2)
	r.do(func() {
		for i := 0; i < 5; i++ {
			r.startViewChange(r.view + 1)
		}
		for seq, entries := range r.vc.qset {
			if len(entries) > 5 {
				t.Errorf("qset[%d] grew to %d entries", seq, len(entries))
			}
		}
	})
}

func TestDecisionProcedureDeterminism(t *testing.T) {
	// The primary's decision must be a pure function of S: two replicas
	// running it over the same set agree (backup verification relies on it).
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	for i := 0; i < 5; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}

	// Harvest real view-change messages from every replica.
	vcs := make(map[message.NodeID]*message.ViewChange)
	for i := 0; i < 4; i++ {
		r := c.Replica(i)
		r.do(func() {
			r.computePQ()
			vcs[r.id] = r.buildViewChange(r.view + 1)
		})
	}
	var d0, d1 decision
	c.Replica(0).do(func() { d0 = c.Replica(0).runDecision(vcs) })
	c.Replica(1).do(func() { d1 = c.Replica(1).runDecision(vcs) })
	if d0.ok != d1.ok || d0.ckptSeq != d1.ckptSeq || d0.ckptDigest != d1.ckptDigest ||
		len(d0.x) != len(d1.x) {
		t.Fatalf("decisions differ: %+v vs %+v", d0, d1)
	}
	for i := range d0.x {
		if d0.x[i] != d1.x[i] {
			t.Fatalf("decision X[%d] differs", i)
		}
	}
}

// TestNewViewWaitSurvivesClientRequest is the regression test for the
// view-change timer wedge: a backup waiting for the new-view of a primary
// that crashed must keep its new-view wait timer when a client request
// arrives, and start the next view when the wait expires (§2.3.5).
func TestNewViewWaitSurvivesClientRequest(t *testing.T) {
	cfg := testConfig()
	cfg.ViewChangeTimeout = 300 * time.Millisecond
	c := NewLocalCluster(4, cfg, kvservice.Factory, map[message.NodeID]Behavior{0: SilentPrimary})
	// Replica 1, the primary of view 1, never gets its new-view out.
	c.Net.SetFilter(func(src, _ message.NodeID, p []byte) ([]byte, bool) {
		if src == 1 {
			if m, err := message.Unmarshal(p); err == nil && m.MsgType() == message.TNewView {
				return nil, false
			}
		}
		return p, true
	})
	c.Start()
	t.Cleanup(c.Stop)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	request := func() {
		cl := c.NewClient()
		cl.RetryTimeout = time.Minute // no retransmission follows it
		// A 4 KiB write is transmitted separately, so every replica
		// receives it.
		go cl.InvokeContext(ctx, kvservice.WriteBlob(make([]byte, 4096)), false)
	}

	// 1-2. The silent primary of view 0 leaves a request unordered, so the
	// backups move to view 1 and wait for its new-view.
	request()
	waiting := func(id int) bool {
		r := c.Replica(id)
		var ok bool
		r.do(func() { ok = r.view == 1 && r.vc.pending && r.vc.timerArmed })
		return ok
	}
	c.waitFrontier(t, nil, 5*time.Second, "backups to wait for view 1's new-view", func() bool {
		return waiting(2) && waiting(3)
	})

	// 3. Replica 1 crashes before its new-view leaves.
	c.Net.Isolate(1)

	// 4. One client request reaches the waiting backups.
	request()

	// 5. The wait still expires: view 2 within two timeouts.
	c.waitFrontier(t, nil, 2*cfg.ViewChangeTimeout, "replicas 2 and 3 to start view 2", func() bool {
		return c.Replica(2).View() >= 2 && c.Replica(3).View() >= 2
	})
}

// TestRequestTimerWaitsForCatchUp pins that an expired request timer does
// not start a view change while the backup is behind the group (it holds a
// catch-up candidate), and does once the backup has caught up.
func TestRequestTimerWaitsForCatchUp(t *testing.T) {
	net := simnet.New(simnet.WithSeed(1))
	t.Cleanup(net.Close)
	r := unstartedReplica(t, net, NewDirectory(4), ModeMAC, 1)

	now := time.Now()
	r.vcTimerDeadline = now.Add(-time.Millisecond)
	r.fetch.candSeq, r.fetch.candSince = 8, now // behind a checkpoint the group took
	r.onTick(now)
	if r.view != 0 || !r.vcTimerDeadline.After(now) {
		t.Fatalf("lagging backup: view %d, deadline %v after now; want view 0 and a re-armed wait",
			r.view, r.vcTimerDeadline.Sub(now))
	}

	r.fetch.candSeq = 0 // caught up
	r.onTick(r.vcTimerDeadline.Add(time.Millisecond))
	if r.view != 1 {
		t.Fatalf("caught-up backup still in view %d after its timer expired", r.view)
	}
}
