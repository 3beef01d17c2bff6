package pbft

import (
	"sync"
	"testing"
	"time"

	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/simnet"
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
	// A single request larger than BatchBytes must still propose — alone —
	// and a batch stops before the request that would overflow it.
	cfg := testConfig()
	cfg.Opt.BatchBytes = 64
	c := newTestCluster(t, 4, cfg, nil)
	r := c.Replica(0)
	r.do(func() {
		enq := func(cli message.NodeID, size int) {
			req := &message.Request{Client: message.ClientIDBase + cli, Timestamp: 1, Op: make([]byte, size)}
			r.log.StoreRequest(req)
			r.enqueueRequest(req)
		}
		enq(11, 10)
		enq(12, 200) // oversized: exceeds BatchBytes on its own
		enq(13, 10)
		enq(14, 10)

		b1, s1 := r.takeBatch(16)
		if len(b1) != 1 || s1 != 10 {
			t.Errorf("batch 1: %d requests / %d bytes, want 1/10 (byte cap must stop before the oversized request)", len(b1), s1)
		}
		b2, s2 := r.takeBatch(16)
		if len(b2) != 1 || s2 != 200 {
			t.Errorf("batch 2: %d requests / %d bytes, want the oversized request alone (1/200)", len(b2), s2)
		}
		b3, s3 := r.takeBatch(16)
		if len(b3) != 2 || s3 != 20 {
			t.Errorf("batch 3: %d requests / %d bytes, want 2/20", len(b3), s3)
		}
	})
}

func TestAdaptiveBatchConverges(t *testing.T) {
	// The AIMD fill target must grow toward BatchRequests while a deep queue
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
		// climbs by 1 per proposal up to BatchRequests.
		for i := 0; i < 2*r.cfg.Opt.BatchRequests; i++ {
			r.fillTarget()
		}
		if got := r.batchTarget; got != r.cfg.Opt.BatchRequests {
			t.Errorf("target under load = %d, want cap %d", got, r.cfg.Opt.BatchRequests)
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
		w := r.cfg.Opt.AgreementWindow
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

func TestBatchWaitFlushesPartialBatch(t *testing.T) {
	// With fixed batching (fill target pinned at BatchRequests) and agreement
	// latency well above BatchWait, requests arriving while a batch is in
	// flight are deadline-held and then flushed by the timer — the flush must
	// be visible in BatchWaitFires and every operation must still execute.
	cfg := testConfig()
	cfg.Opt.AdaptiveBatch = false
	cfg.Opt.BatchWait = time.Millisecond
	net := simnet.New(simnet.WithSeed(cfg.Seed+5),
		simnet.WithDefaults(simnet.LinkConfig{Latency: 5 * time.Millisecond}))
	c := NewCluster(net, cfg, 4, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(func() { c.Stop(); net.Close() })

	const nClients, each = 4, 10
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
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("invoke: %v", err)
	}
	cl := c.NewClient()
	if got := kvservice.DecodeU64(mustInvoke(t, cl, kvservice.Get(), true)); got != nClients*each {
		t.Fatalf("counter = %d, want %d", got, nClients*each)
	}
	if m := c.Replica(0).Metrics(); m.BatchWaitFires == 0 {
		t.Errorf("no BatchWait fires under concurrent load with 15ms agreement latency: %+v", m)
	}
}

func TestBatchWaitPartialBatchSurvivesViewChange(t *testing.T) {
	// A deadline-armed partial batch on a primary that then fails must not
	// lose or duplicate requests. With 40ms links, request A proposes at
	// ~40ms and its agreement completes among the backups at ~160ms even
	// without the primary; request B lands at ~90ms while A is in flight, so
	// it is held behind the accumulate deadline (BatchWait is set far beyond
	// the view-change timeout, so the old primary can never flush it).
	// Isolating the primary at ~110ms strands B on the dead primary; client
	// retransmission must carry it to the new view's primary, and exactly-
	// once must hold for both operations.
	cfg := testConfig()
	cfg.Opt.BatchWait = 5 * time.Second
	cfg.Opt.AdaptiveBatch = false // fixed fill target 16, so one queued request accumulates
	net := simnet.New(simnet.WithSeed(cfg.Seed+9),
		simnet.WithDefaults(simnet.LinkConfig{Latency: 40 * time.Millisecond}))
	c := NewCluster(net, cfg, 4, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(func() { c.Stop(); net.Close() })

	clA, clB := c.NewClient(), c.NewClient()
	clA.MaxRetries, clB.MaxRetries = 25, 25
	resA := make(chan error, 1)
	resB := make(chan error, 1)
	go func() {
		_, err := clA.Invoke(kvservice.Incr(), false)
		resA <- err
	}()
	time.Sleep(50 * time.Millisecond)
	go func() {
		_, err := clB.Invoke(kvservice.Incr(), false)
		resB <- err
	}()
	time.Sleep(60 * time.Millisecond)
	net.Isolate(0)
	// Pin the premise: at isolation B should be queued on the old primary
	// behind an armed accumulate deadline. Scheduling jitter can shift the
	// interleaving — the correctness assertions below hold either way, so
	// a missed window only downgrades what this run exercised.
	var held bool
	c.Replica(0).do(func() {
		held = r0held(c.Replica(0))
	})
	if !held {
		t.Logf("timing window missed: request B was not deadline-held at isolation; exactly-once checks still apply")
	}

	if err := <-resA; err != nil {
		t.Fatalf("op A lost across the view change: %v", err)
	}
	if err := <-resB; err != nil {
		t.Fatalf("op B lost across the view change: %v", err)
	}
	// Exactly-once: both increments applied, neither duplicated.
	cl := c.NewClient()
	cl.MaxRetries = 25
	if got := kvservice.DecodeU64(mustInvoke(t, cl, kvservice.Get(), true)); got != 2 {
		t.Fatalf("counter = %d after view change, want exactly 2", got)
	}
	if v := c.Replica(1).View(); held && v == 0 {
		t.Errorf("request was deadline-held on an isolated primary yet no view change happened")
	}
}

// r0held reports whether the replica currently holds a queued request behind
// an armed accumulate deadline (event-loop context only).
func r0held(r *Replica) bool {
	return r.queue.Len() > 0 && !r.batchDeadline.IsZero()
}
