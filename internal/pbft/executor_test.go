package pbft

// Tests for execution at the replica: the checkpoint metrics, the §5.1.3
// read-only quiescence rule, and the tentative-checkpoint rollback
// regression.

import (
	"testing"
	"time"

	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/simnet"
)

// TestExecMetricsSurface pins the execution metrics plumbing: checkpoint
// manager counters and digest latency must reach Replica.Metrics().
func TestExecMetricsSurface(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 8
	cfg.Opt.Batching = false
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	blob := make([]byte, 2048)
	for i := 0; i < 10; i++ {
		blob[0] = byte(i)
		mustInvoke(t, cl, kvservice.WriteBlob(blob), false)
	}
	// A reply certificate needs only 2f+1 replicas: the one inspected may
	// still be executing when the client's last Invoke returns.
	c.waitFrontier(t, nil, 5*time.Second, "replica 1 to execute all 10 writes", func() bool {
		return c.Replica(1).LastExecuted() >= 10
	})
	m := c.Replica(1).Metrics()
	if m.CheckpointsTaken == 0 {
		t.Fatalf("no checkpoints after 10 writes with K=4: %+v", m)
	}
	if m.PagesDigested == 0 || m.PagesCopied == 0 {
		t.Fatalf("manager counters not surfaced: %+v", m)
	}
	if m.CkptDigestTime <= 0 {
		t.Fatalf("checkpoint digest latency not tracked: %+v", m)
	}
}

// dropCommits suppresses every commit message (any view) so batches
// prepare and execute tentatively but never commit.
func dropCommits(src, dst message.NodeID, p []byte) ([]byte, bool) {
	if m, err := message.Unmarshal(p); err == nil {
		if _, ok := m.(*message.Commit); ok {
			return nil, false
		}
	}
	return p, true
}

// TestReadOnlyWaitsForCommit is the §5.1.3 quiescence rule: a queued
// read-only request whose arrival mark covers a tentative (uncommitted)
// write must NOT be answered — even though the replica has long since
// applied the write — until the prefix commits.
func TestReadOnlyWaitsForCommit(t *testing.T) {
	cfg := testConfig()
	// Backups now treat a tentatively-executed batch whose commits never
	// arrive as grounds for a view change (§2.3.5 liveness); this test
	// wants the uncommitted window held open artificially, so park the
	// timer beyond the test's horizon.
	cfg.ViewChangeTimeout = time.Minute
	net := simnet.New(simnet.WithSeed(cfg.Seed + 11))
	t.Cleanup(func() { net.Close() })
	net.SetFilter(dropCommits)

	c := NewCluster(net, cfg, 4, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)

	// A tentative write (the client accepts 2f+1 tentative replies).
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

	// The read-only request queues behind the uncommitted write. With
	// MaxRetries=0 the only way it can ever answer is from the queue.
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

	// The replica applied the write long ago; the reply must still be
	// withheld while the write is uncommitted.
	select {
	case r := <-done:
		t.Fatalf("read-only reply released before its prefix committed (res=%v err=%v)", r.res, r.err)
	case <-time.After(300 * time.Millisecond):
	}

	// Let commits flow again and push a second write through: its commit
	// advances the committed frontier past the read-only mark and releases
	// the queued reply — still in clB's first round trip (MaxRetries=0).
	// The answer reflects both writes: the read serializes after the batch
	// that released it.
	net.SetFilter(nil)
	if got := kvservice.DecodeU64(mustInvoke(t, clA, kvservice.Incr(), false)); got != 2 {
		t.Fatalf("second incr -> %d", got)
	}
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("queued read-only failed after commit: %v", r.err)
		}
		if got := kvservice.DecodeU64(r.res); got != 2 {
			t.Fatalf("read-only reply = %d, want 2", got)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("queued read-only never answered after commits resumed")
	}
}

// TestTentativeCheckpointRollback is the regression for the §5.1.2 /
// §2.3.4 interaction: a checkpoint taken after a TENTATIVE execution whose
// batch is then rolled back by a view change must drop both the
// pendingCkpts entry (the unsent checkpoint message) and the manager
// snapshot, and a later stable checkpoint at the same sequence number must
// produce the correct digest (the group reaches stability on it).
func TestTentativeCheckpointRollback(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 1 // checkpoint after every batch
	cfg.LogWindow = 8
	cfg.Opt.Batching = false
	net := simnet.New(simnet.WithSeed(cfg.Seed + 13))
	t.Cleanup(func() { net.Close() })

	// Drop every commit, and every prepare in views > 0: view 0 executes
	// tentatively but cannot commit; after the view change nothing can
	// even re-prepare, freezing the post-rollback state for inspection.
	net.SetFilter(func(src, dst message.NodeID, p []byte) ([]byte, bool) {
		if m, err := message.Unmarshal(p); err == nil {
			switch mm := m.(type) {
			case *message.Commit:
				return nil, false
			case *message.Prepare:
				if mm.View > 0 {
					return nil, false
				}
			}
		}
		return p, true
	})

	c := NewCluster(net, cfg, 4, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)

	// One tentative write: executes at seq 1, checkpoints tentatively at 1.
	clA := c.NewClient()
	clA.RetryTimeout = 5 * time.Second
	if got := kvservice.DecodeU64(mustInvoke(t, clA, kvservice.Incr(), false)); got != 1 {
		t.Fatalf("tentative incr -> %d", got)
	}
	waitReplicas(t, c, 1, 3, "tentative checkpoint pending", func(r *Replica) bool {
		var ok bool
		r.do(func() {
			_, pending := r.pendingCkpts[1]
			ok = r.lastExec == 1 && r.lastCommitted == 0 && pending && r.ckpt.HasSnapshot(1)
		})
		return ok
	})

	// Kill the primary and push a request through the backups to force the
	// view change (and with it the rollback).
	net.Isolate(0)
	clC := c.NewClient()
	clC.RetryTimeout = 50 * time.Millisecond
	clC.MaxRetries = 120
	resC := make(chan error, 1)
	go func() {
		_, err := clC.Invoke(kvservice.Noop(), false)
		resC <- err
	}()

	waitReplicas(t, c, 1, 3, "rollback", func(r *Replica) bool {
		var ok bool
		r.do(func() { ok = r.metrics.Rollbacks >= 1 })
		return ok
	})

	// Post-rollback: the pending entry AND the manager snapshot at 1 must
	// both be gone (prepares of views > 0 are filtered, so nothing can
	// have re-executed seq 1 yet).
	for i := 1; i <= 3; i++ {
		r := c.Replica(i)
		r.do(func() {
			if _, ok := r.pendingCkpts[1]; ok {
				t.Errorf("replica %d: rolled-back tentative checkpoint still pending", i)
			}
			if r.ckpt.HasSnapshot(1) {
				t.Errorf("replica %d: manager snapshot at seq 1 survived the rollback", i)
			}
			if r.lastExec != 0 {
				t.Errorf("replica %d: lastExec = %d after rollback, want 0", i, r.lastExec)
			}
		})
	}
	if t.Failed() {
		t.FailNow()
	}

	// Heal the protocol: prepares and commits flow again, the write
	// recommits at seq 1, and the retaken checkpoint must stabilize — the
	// group only advances its low water mark if the fresh digest at the
	// SAME sequence number is correct on a quorum.
	net.SetFilter(nil)
	if err := <-resC; err != nil {
		t.Fatalf("request after view change failed: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for i := 1; i <= 3; i++ {
		for c.Replica(i).LowWaterMark() < 1 {
			if time.Now().After(deadline) {
				t.Fatalf("replica %d never stabilized a checkpoint past the rolled-back seq", i)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// And the re-executed state is the one the client certified.
	res := mustInvoke(t, clA, kvservice.Get(), true)
	if got := kvservice.DecodeU64(res); got != 1 {
		t.Fatalf("counter after rollback+recommit = %d, want 1", got)
	}
}
