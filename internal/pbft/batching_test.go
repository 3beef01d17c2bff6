package pbft

import (
	"sync"
	"testing"
	"time"

	"repro/internal/kvservice"
	"repro/internal/message"
)

func TestRequestQueueSemantics(t *testing.T) {
	q := newRequestQueue()
	mk := func(cli message.NodeID, ts uint64, size int) *message.Request {
		return &message.Request{Client: message.ClientIDBase + cli, Timestamp: ts, Op: make([]byte, size)}
	}
	a1, b1, c1 := mk(1, 1, 10), mk(2, 1, 20), mk(3, 1, 30)
	q.Push(a1.Client, a1.Digest(), len(a1.Op))
	q.Push(b1.Client, b1.Digest(), len(b1.Op))
	q.Push(c1.Client, c1.Digest(), len(c1.Op))
	if q.Len() != 3 || q.Bytes() != 60 {
		t.Fatalf("len=%d bytes=%d, want 3/60", q.Len(), q.Bytes())
	}

	// Replacing a client's request moves it to the tail (§5.5: newest wins).
	a2 := mk(1, 2, 15)
	q.Push(a2.Client, a2.Digest(), len(a2.Op))
	if q.Len() != 3 || q.Bytes() != 65 {
		t.Fatalf("after replace: len=%d bytes=%d, want 3/65", q.Len(), q.Bytes())
	}
	// Re-pushing the same digest is a no-op (position preserved).
	q.Push(a2.Client, a2.Digest(), len(a2.Op))
	if q.Len() != 3 || q.Bytes() != 65 {
		t.Fatalf("after same-digest push: len=%d bytes=%d, want 3/65", q.Len(), q.Bytes())
	}

	// Remove with a stale digest is a no-op; with the live one it drops.
	q.Remove(a2.Client, a1.Digest())
	if _, ok := q.Digest(a2.Client); !ok {
		t.Fatal("stale-digest Remove dropped the live entry")
	}
	q.Remove(a2.Client, a2.Digest())
	if _, ok := q.Digest(a2.Client); ok {
		t.Fatal("Remove left the entry")
	}

	// Pop order is FIFO over the survivors: b then c.
	cli, _, _, ok := q.Pop()
	if !ok || cli != b1.Client {
		t.Fatalf("pop 1: %v %v", cli, ok)
	}
	cli, _, _, ok = q.Pop()
	if !ok || cli != c1.Client {
		t.Fatalf("pop 2: %v %v", cli, ok)
	}
	if _, _, _, ok := q.Pop(); ok || q.Len() != 0 || q.Bytes() != 0 {
		t.Fatalf("queue not empty after draining: len=%d bytes=%d", q.Len(), q.Bytes())
	}
}

func TestOversizedRequestProposesAlone(t *testing.T) {
	// A single request larger than batchBytes must still propose — alone —
	// and a batch stops before the request that would overflow it.
	c := newTestCluster(t, 4, testConfig(), nil)
	r := c.Replica(0)
	r.do(func() {
		enq := func(cli message.NodeID, size int) {
			req := &message.Request{Client: message.ClientIDBase + cli, Timestamp: 1, Op: make([]byte, size)}
			r.log.StoreRequest(req)
			r.enqueueRequest(req)
		}
		enq(11, 10)
		enq(12, batchBytes+1) // oversized: exceeds batchBytes on its own
		enq(13, 10)
		enq(14, 10)

		b1, s1 := r.takeBatch(16)
		if len(b1) != 1 || s1 != 10 {
			t.Errorf("batch 1: %d requests / %d bytes, want 1/10 (byte cap must stop before the oversized request)", len(b1), s1)
		}
		b2, s2 := r.takeBatch(16)
		if len(b2) != 1 || s2 != batchBytes+1 {
			t.Errorf("batch 2: %d requests / %d bytes, want the oversized request alone (1/%d)", len(b2), s2, batchBytes+1)
		}
		b3, s3 := r.takeBatch(16)
		if len(b3) != 2 || s3 != 20 {
			t.Errorf("batch 3: %d requests / %d bytes, want 2/20", len(b3), s3)
		}
	})
}

func TestAdaptiveBatchConverges(t *testing.T) {
	// The AIMD fill target must grow toward batchRequests while a deep queue
	// persists and shrink back to 1 once the queue drains.
	cfg := testConfig()
	c := newTestCluster(t, 4, cfg, nil)
	r := c.Replica(0)
	r.do(func() {
		for i := 0; i < 128; i++ {
			req := &message.Request{Client: message.ClientIDBase + message.NodeID(100+i), Timestamp: 1, Op: make([]byte, 8)}
			r.log.StoreRequest(req)
			r.enqueueRequest(req)
		}
		// Sustained backlog: desired = ceil(128/8) = 16 ≥ cap, so the target
		// climbs by 1 per proposal up to batchRequests.
		for i := 0; i < 2*batchRequests; i++ {
			r.fillTarget()
		}
		if got := r.batchTarget; got != batchRequests {
			t.Errorf("target under load = %d, want cap %d", got, batchRequests)
		}
		// Drain the queue: the target must decay multiplicatively to 1.
		for r.queue.Len() > 0 {
			r.queue.Pop()
		}
		for i := 0; i < 8; i++ {
			r.fillTarget()
		}
		if got := r.batchTarget; got != 1 {
			t.Errorf("target after drain = %d, want 1", got)
		}
	})
}

func TestAdaptiveRampsUnderWindowPressure(t *testing.T) {
	// Mid-load regression (seen at 10 open-loop clients): the backlog is
	// shorter than the agreement window, but the window itself is saturated.
	// Dividing the queue by the WHOLE window pins desired at 1 and adaptive
	// degenerates to serial agreement; the target must instead size batches
	// for the outstanding demand (queued + in flight) over the free slots
	// and ramp.
	cfg := testConfig()
	c := newTestCluster(t, 4, cfg, nil)
	r := c.Replica(0)
	r.do(func() {
		w := int(r.cfg.window())
		for i := 0; i < w-2; i++ { // queue deep enough to matter, < window
			req := &message.Request{Client: message.ClientIDBase + message.NodeID(200+i), Timestamp: 1, Op: make([]byte, 8)}
			r.log.StoreRequest(req)
			r.enqueueRequest(req)
		}
		// Saturate the window: every slot in flight, none executed.
		saved := r.seqno
		r.seqno = r.lastExec + message.Seq(w)
		for i := 0; i < w; i++ {
			r.fillTarget()
		}
		if got := r.batchTarget; got < 2 {
			t.Errorf("fill target stuck at %d with a saturated window and %d queued; adaptive degenerates to serial", got, w-2)
		}
		// One free slot must absorb the whole outstanding demand (w-2
		// queued + w-1 in flight) once ramped.
		r.seqno = r.lastExec + message.Seq(w) - 1
		for i := 0; i < 2*w; i++ {
			r.fillTarget()
		}
		if got := r.batchTarget; got != 2*w-3 {
			t.Errorf("fill target = %d, want the outstanding demand %d over the one free slot", got, 2*w-3)
		}
		r.seqno = saved
	})
}

// driveUntil runs r's event loop by hand inside r.do, handing each inbound
// verdict to onInbound as run does, until cond holds or timeout passes, and
// reports whether cond held. Timer and tick events wait until it returns,
// so cond may act on a state it observes (an armed accumulate deadline,
// say) before any timer changes it.
func driveUntil(r *Replica, timeout time.Duration, cond func() bool) bool {
	var ok bool
	r.do(func() {
		expired := time.After(timeout)
		for !cond() {
			select {
			case im := <-r.inbox:
				r.onInbound(im)
			case <-expired:
				return
			}
		}
		ok = true
	})
	return ok
}

// holdOneRequest brings primary 0 of c to the accumulate state: request A is
// proposed but cannot commit (the primary's links to the backups are
// blocked), the fill target is raised to its cap, and request B, arriving
// while A is in flight, waits in the queue behind an armed batchWait
// deadline. then runs on the event loop at that moment. It returns the two
// invocations' results; it fails the test if B is never held.
func holdOneRequest(t *testing.T, c *Cluster, then func()) (resA, resB chan error) {
	t.Helper()
	r := c.Replica(0)
	for i := 1; i < c.N(); i++ {
		c.Net.Block(0, message.NodeID(i))
	}
	invoke := func() chan error {
		cl := c.NewClient()
		cl.MaxRetries = 25
		res := make(chan error, 1)
		go func() {
			_, err := cl.Invoke(kvservice.Incr(), false)
			res <- err
		}()
		return res
	}
	resA = invoke()
	if !driveUntil(r, 5*time.Second, func() bool {
		if r.seqno <= r.lastExec {
			return false
		}
		// A is in flight. One queued request is below this target, so the
		// next arrival accumulates instead of proposing.
		r.batchTarget = batchRequests
		return true
	}) {
		t.Fatal("request A was never proposed")
	}
	resB = invoke()
	if !driveUntil(r, 5*time.Second, func() bool {
		if !r0held(r) {
			return false
		}
		if then != nil {
			then()
		}
		return true
	}) {
		t.Fatal("request B was not held behind the accumulate deadline with A in flight and the fill target above the queue")
	}
	return resA, resB
}

func TestBatchWaitFlushesPartialBatch(t *testing.T) {
	// A request queued below the fill target while a batch is in flight is
	// held, the batchWait timer fires and proposes it, and it executes.
	c := newTestCluster(t, 4, testConfig(), nil)
	r := c.Replica(0)
	resA, resB := holdOneRequest(t, c, nil)

	c.waitFrontier(t, nil, 5*time.Second, "the accumulate deadline to fire", func() bool {
		return r.Metrics().BatchWaitFires > 0
	})
	var proposed message.Seq
	r.do(func() { proposed = r.seqno })
	if proposed != 2 {
		t.Fatalf("primary proposed through seq %d after the deadline fired, want 2 (A, then B alone)", proposed)
	}
	c.Net.Heal()
	if err := <-resA; err != nil {
		t.Fatalf("op A: %v", err)
	}
	if err := <-resB; err != nil {
		t.Fatalf("op B: %v", err)
	}
	cl := c.NewClient()
	if got := kvservice.DecodeU64(mustInvoke(t, cl, kvservice.Get(), true)); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
}

func TestBatchWaitPartialBatchSurvivesViewChange(t *testing.T) {
	// A request held behind an armed accumulate deadline on a primary that
	// then loses its view must execute exactly once in the new view. The
	// primary is isolated while B is still held, so neither A's pre-prepare
	// nor B's ever reaches a backup; client retransmission must carry both
	// to the new view's primary.
	c := newTestCluster(t, 4, testConfig(), nil)
	resA, resB := holdOneRequest(t, c, func() { c.Net.Isolate(0) })

	if err := <-resA; err != nil {
		t.Fatalf("op A lost across the view change: %v", err)
	}
	if err := <-resB; err != nil {
		t.Fatalf("op B lost across the view change: %v", err)
	}
	if v := c.Replica(1).View(); v == 0 {
		t.Fatal("ops completed with the old primary isolated, yet no view change happened")
	}
	// Exactly-once: both increments applied, neither duplicated.
	cl := c.NewClient()
	cl.MaxRetries = 25
	if got := kvservice.DecodeU64(mustInvoke(t, cl, kvservice.Get(), true)); got != 2 {
		t.Fatalf("counter = %d after view change, want exactly 2", got)
	}
}

// r0held reports whether the replica currently holds a queued request behind
// an armed accumulate deadline (event-loop context only).
func r0held(r *Replica) bool {
	return r.queue.Len() > 0 && !r.batchDeadline.IsZero()
}

func TestAgreementWindowClampedToLogWindow(t *testing.T) {
	// With L = 4, below agreementWindow, the window in force is L. Eight
	// closed-loop clients keep the primary's window full across many
	// checkpoint intervals (K = 2); the primary never runs more than L
	// batches past its execution frontier, and every operation completes.
	cfg := testConfig()
	cfg.CheckpointInterval = 2
	cfg.LogWindow = 4
	c := newTestCluster(t, 4, cfg, nil)
	r := c.Replica(0)
	if w := r.cfg.window(); w != cfg.LogWindow {
		t.Fatalf("window() = %d with L = %d, want L", w, cfg.LogWindow)
	}

	const nClients, each = 8, 4
	var wg sync.WaitGroup
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		cl := c.NewClient()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				if _, err := cl.Invoke(kvservice.Incr(), false); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	var ahead, maxAhead message.Seq
	samples := 0
	for sampling := true; sampling; {
		select {
		case <-done:
			sampling = false
		default:
		}
		r.do(func() { ahead = r.seqno - r.lastExec })
		maxAhead = max(maxAhead, ahead)
		samples++
	}
	close(errs)
	for err := range errs {
		t.Fatalf("invoke: %v", err)
	}
	if maxAhead > cfg.LogWindow {
		t.Fatalf("primary ran %d batches past its execution frontier, more than L = %d", maxAhead, cfg.LogWindow)
	}
	if maxAhead == 0 {
		t.Fatalf("no batch was ever in flight in %d samples", samples)
	}
	cl := c.NewClient()
	got := kvservice.DecodeU64(mustInvoke(t, cl, kvservice.Get(), true))
	if got != nClients*each || got < 3*uint64(cfg.LogWindow) {
		t.Fatalf("counter = %d, want %d (at least 3L = %d)", got, nClients*each, 3*cfg.LogWindow)
	}
}
