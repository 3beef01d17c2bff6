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
	if _, _, size, _ := q.Front(); q.Len() != 3 || size != 10 {
		t.Fatalf("len=%d front size=%d, want 3/10", q.Len(), size)
	}

	// Replacing a client's request moves it to the tail (§5.5: newest wins),
	// carrying the new request's size.
	a2 := mk(1, 2, 15)
	q.Push(a2.Client, a2.Digest(), len(a2.Op))
	if _, _, size, _ := q.Front(); q.Len() != 3 || size != 20 || q.tail.client != a2.Client || q.tail.size != 15 {
		t.Fatalf("after replace: len=%d front size=%d tail=%d/%d, want 3/20 and client %d/15",
			q.Len(), size, q.tail.client, q.tail.size, a2.Client)
	}
	// Re-pushing the same digest is a no-op (position preserved).
	q.Push(a2.Client, a2.Digest(), len(a2.Op))
	if _, _, size, _ := q.Front(); q.Len() != 3 || size != 20 || q.tail.client != a2.Client || q.tail.size != 15 {
		t.Fatalf("after same-digest push: len=%d front size=%d tail=%d/%d, want 3/20 and client %d/15",
			q.Len(), size, q.tail.client, q.tail.size, a2.Client)
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

	// Pop order is FIFO over the survivors: b then c, each with its size.
	cli, _, size, ok := q.Pop()
	if !ok || cli != b1.Client || size != 20 {
		t.Fatalf("pop 1: %v %d %v", cli, size, ok)
	}
	cli, _, size, ok = q.Pop()
	if !ok || cli != c1.Client || size != 30 {
		t.Fatalf("pop 2: %v %d %v", cli, size, ok)
	}
	if _, _, _, ok := q.Pop(); ok || q.Len() != 0 {
		t.Fatalf("queue not empty after draining: len=%d", q.Len())
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

// driveUntil runs r's event loop by hand inside r.do, handing each inbound
// verdict to onInbound as run does, until cond holds or timeout passes, and
// reports whether cond held. Tick events wait until it returns, so cond
// may act on a state it observes (a full window, say) before any timer
// changes it.
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

// TestWindowFullBatching fills primary 0's agreement window with W
// single-request batches that cannot commit (its links to the backups are
// blocked), queues k more requests behind the full window, and then lets
// the window slide. With Batching on the k requests ride one pre-prepare,
// sequence number W+1; with it off each rides its own. In the view-change
// row the primary is isolated instead, while the k requests wait, and every
// request executes exactly once in the new view.
func TestWindowFullBatching(t *testing.T) {
	const k = 3
	for _, tc := range []struct {
		name       string
		batching   bool
		viewChange bool
	}{
		{name: "batching on", batching: true},
		{name: "batching off", batching: false},
		{name: "view change", batching: true, viewChange: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Opt.Batching = tc.batching
			if !tc.viewChange {
				// The blocked links must not cost the primary its view.
				cfg.ViewChangeTimeout = 10 * time.Second
			}
			c := newTestCluster(t, 4, cfg, nil)
			r := c.Replica(0)
			w := int(r.cfg.window())
			for i := 1; i < c.N(); i++ {
				c.Net.Block(0, message.NodeID(i))
			}
			var results []chan error
			invoke := func() *Client {
				cl := c.NewClient()
				cl.MaxRetries = 25
				res := make(chan error, 1)
				results = append(results, res)
				go func() {
					_, err := cl.Invoke(kvservice.Incr(), false)
					res <- err
				}()
				return cl
			}

			for i := 0; i < w; i++ {
				invoke()
			}
			if !driveUntil(r, 5*time.Second, func() bool { return r.seqno == r.lastExec+message.Seq(w) }) {
				t.Fatalf("the primary never filled its window of %d batches", w)
			}
			queued := make([]message.NodeID, k)
			for i := range queued {
				queued[i] = invoke().ID()
			}
			if !driveUntil(r, 5*time.Second, func() bool {
				for _, id := range queued {
					if _, ok := r.queue.Digest(id); !ok {
						return false
					}
				}
				return r.seqno == message.Seq(w)
			}) {
				t.Fatalf("%d requests never queued behind the full window", k)
			}

			if tc.viewChange {
				c.Net.Isolate(0)
			} else {
				c.Net.Heal()
			}
			for i, res := range results {
				if err := <-res; err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
			}

			if tc.viewChange {
				c.waitFrontier(t, []int{1, 2, 3}, 5*time.Second, "the backups to leave view 0", func() bool {
					return c.Replica(1).View() > 0
				})
			} else {
				c.waitFrontier(t, []int{0, 1, 2, 3}, 5*time.Second, "every replica to execute the last batch", nil)
				var seqno message.Seq
				r.do(func() { seqno = r.seqno })
				m := r.Metrics()
				wantBatches := uint64(w + k)
				if tc.batching {
					wantBatches = uint64(w + 1)
				}
				if seqno != message.Seq(wantBatches) || m.BatchesProposed != wantBatches || m.RequestsProposed != uint64(w+k) {
					t.Fatalf("primary proposed %d requests in %d batches through seq %d, want %d in %d",
						m.RequestsProposed, m.BatchesProposed, seqno, w+k, wantBatches)
				}
			}
			cl := c.NewClient()
			cl.MaxRetries = 25
			if got := kvservice.DecodeU64(mustInvoke(t, cl, kvservice.Get(), true)); got != uint64(w+k) {
				t.Fatalf("counter = %d, want exactly %d", got, w+k)
			}
		})
	}
}

func TestAgreementWindowClampedToLogWindow(t *testing.T) {
	// With L = 2, below agreementWindow, the window in force is L. Eight
	// closed-loop clients keep the primary's window full across many
	// checkpoint intervals (K = 1); the primary never runs more than L
	// batches past its execution frontier, and every operation completes.
	cfg := testConfig()
	cfg.CheckpointInterval = 1
	cfg.LogWindow = 2
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
