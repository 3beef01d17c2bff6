package pbft

import (
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/statemachine"
)

// durableConfig is testConfig with a file-backed WAL rooted at a fresh
// temporary directory (one subdirectory per replica, created by the
// cluster) and a small window so crashes land both inside and across
// checkpoint intervals.
func durableConfig(t testing.TB) Config {
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 8
	cfg.WALDir = t.TempDir()
	// Rotate at every stable checkpoint regardless of segment size, so
	// these tests exercise the snapshot-plus-tail replay path and not just
	// the long-tail one.
	cfg.WALRotateBytes = 1
	return cfg
}

// flushWAL forces replica i's pending log frames to disk so a subsequent
// Kill models "crash after the fsync window", making the replayed state
// deterministic for assertions.
func flushWAL(c *Cluster, i int) {
	if w := c.Replica(i).wal; w != nil {
		w.Barrier()
	}
}

// TestRestartSurvivesKillMidBatch crashes a backup with agreement traffic
// in flight, keeps the load flowing on the surviving quorum, restarts the
// victim from its log, and requires full convergence with exactly-once
// semantics: the final counter is bounded by the loader's successful and
// attempted operations and identical on every replica.
func TestRestartSurvivesKillMidBatch(t *testing.T) {
	c := newTestCluster(t, 4, durableConfig(t), nil)
	cl := c.NewClient()

	var successes, attempts atomic.Uint64
	stop := make(chan struct{})
	done := make(chan struct{})
	loader := c.NewClient()
	loader.MaxRetries = 60
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			attempts.Add(1)
			if _, err := loader.Invoke(kvservice.Incr(), false); err == nil {
				successes.Add(1)
			}
		}
	}()

	c.waitFrontier(t, nil, 10*time.Second, "initial progress", func() bool {
		return counterAt(c, 0) >= 10
	})
	c.Kill(1) // mid-batch: the loader never pauses

	c.waitFrontier(t, nil, 10*time.Second, "liveness with a dead backup", func() bool {
		return counterAt(c, 0) >= 30
	})

	restart := time.Now()
	c.Restart(1)
	c.waitFrontier(t, nil, 20*time.Second, "restarted replica catches up", func() bool {
		return counterAt(c, 1) >= 30
	})
	t.Logf("restart-to-caught-up: %v (replay %v)",
		time.Since(restart), c.Replica(1).Metrics().ReplayTime)

	close(stop)
	<-done

	// One more agreed operation, then every replica must hold the same
	// counter, and that counter must equal some prefix of the loader's
	// attempts: at least every acknowledged op, at most every attempt
	// (an op whose ack was lost may still have executed — once).
	mustInvoke(t, cl, kvservice.Incr(), false)
	c.waitFrontier(t, nil, 10*time.Second, "counters converge", func() bool {
		v := counterAt(c, 0)
		return counterAt(c, 1) == v && counterAt(c, 2) == v && counterAt(c, 3) == v
	})
	got := counterAt(c, 1)
	lo, hi := successes.Load()+1, attempts.Load()+1
	if got < lo || got > hi {
		t.Fatalf("counter %d outside exactly-once bounds [%d, %d]", got, lo, hi)
	}
}

// TestRestartPreservesReplyCache quiesces the cluster, flushes the victim's
// log, kills and restarts it, and requires the WAL replay alone (no state
// transfer, no help from peers) to restore both the application state and
// the client's cached reply — the mechanism that makes a retransmitted
// request return its old answer instead of executing twice.
func TestRestartPreservesReplyCache(t *testing.T) {
	c := newTestCluster(t, 4, durableConfig(t), nil)
	cl := c.NewClient()
	const ops = 6
	for i := 0; i < ops; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	c.waitFrontier(t, nil, 5*time.Second, "victim executes everything", func() bool {
		return counterAt(c, 1) == ops
	})
	flushWAL(c, 1)
	c.Kill(1)

	r := c.Restart(1)
	if r.Metrics().ReplayTime <= 0 {
		t.Fatalf("restart did not replay a log")
	}
	var counter uint64
	var cachedTS uint64
	var cachedResult []byte
	r.InspectService(func(s statemachine.Service) {
		counter = kvservice.DecodeU64(s.Execute(message.ClientIDBase+9999, kvservice.Get(), nil))
		// InspectService runs on the event loop; the cache is safe to read.
		if cr := r.replyCache.Get(message.ClientIDBase); cr != nil {
			cachedTS = cr.Timestamp
			cachedResult = append([]byte(nil), cr.Result...)
		}
	})
	if counter != ops {
		t.Fatalf("replayed counter = %d, want %d", counter, ops)
	}
	if cachedTS == 0 {
		t.Fatalf("reply cache lost across restart")
	}
	if got := kvservice.DecodeU64(cachedResult); got != ops {
		t.Fatalf("cached reply = %d, want %d", got, ops)
	}

	// The restored replica participates in new agreements immediately and
	// nothing was double-applied.
	mustInvoke(t, cl, kvservice.Incr(), false)
	c.waitFrontier(t, nil, 10*time.Second, "post-restart convergence", func() bool {
		v := counterAt(c, 0)
		return v == ops+1 && counterAt(c, 1) == v && counterAt(c, 2) == v && counterAt(c, 3) == v
	})
}

// TestRestartSurvivesKillMidCheckpoint crashes just past a stable
// checkpoint boundary, so recovery must stitch a snapshot AND a record
// tail together: replay installs the checkpoint, re-executes the suffix,
// and the replica rejoins without divergence.
func TestRestartSurvivesKillMidCheckpoint(t *testing.T) {
	c := newTestCluster(t, 4, durableConfig(t), nil)
	cl := c.NewClient()
	const ops = 18 // stable checkpoints at 4, 8, 12, 16; records 17-18 in the tail
	for i := 0; i < ops; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	c.waitFrontier(t, nil, 5*time.Second, "victim executes everything", func() bool {
		return counterAt(c, 1) == uint64(ops)
	})
	c.waitFrontier(t, nil, 5*time.Second, "victim collects a stable checkpoint", func() bool {
		return c.Replica(1).LowWaterMark() >= 16
	})
	flushWAL(c, 1)
	c.Kill(1)

	r := c.Restart(1)
	var counter uint64
	r.InspectService(func(s statemachine.Service) {
		counter = kvservice.DecodeU64(s.Execute(message.ClientIDBase+9999, kvservice.Get(), nil))
	})
	if counter != ops {
		t.Fatalf("replayed counter = %d, want %d", counter, ops)
	}
	if r.LowWaterMark() < 16 {
		t.Fatalf("low water mark %d did not survive restart", r.LowWaterMark())
	}

	mustInvoke(t, cl, kvservice.Incr(), false)
	c.waitFrontier(t, nil, 10*time.Second, "post-restart convergence", func() bool {
		v := counterAt(c, 0)
		return v == ops+1 && counterAt(c, 1) == v && counterAt(c, 2) == v && counterAt(c, 3) == v
	})
}

// TestRestartLongTailReplay restarts from a log that was never rotated
// (the default size threshold is far above what 18 tiny ops write): the
// whole history replays from sequence zero, which works only if replay
// slides its water-mark window over the logged stable-checkpoint records —
// 18 sequences do not fit in a LogWindow of 8.
func TestRestartLongTailReplay(t *testing.T) {
	cfg := durableConfig(t)
	cfg.WALRotateBytes = 0 // default threshold: no rotation at this scale
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	const ops = 18
	for i := 0; i < ops; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	c.waitFrontier(t, nil, 5*time.Second, "victim executes everything", func() bool {
		return counterAt(c, 1) == uint64(ops)
	})
	c.waitFrontier(t, nil, 5*time.Second, "victim collects a stable checkpoint", func() bool {
		return c.Replica(1).LowWaterMark() >= 16
	})
	flushWAL(c, 1)
	c.Kill(1)

	r := c.Restart(1)
	var counter uint64
	r.InspectService(func(s statemachine.Service) {
		counter = kvservice.DecodeU64(s.Execute(message.ClientIDBase+9999, kvservice.Get(), nil))
	})
	if counter != ops {
		t.Fatalf("replayed counter = %d, want %d", counter, ops)
	}
	if lw := r.LowWaterMark(); lw < 16 {
		t.Fatalf("low water mark %d: replay did not slide the window over KindStable records", lw)
	}

	mustInvoke(t, cl, kvservice.Incr(), false)
	c.waitFrontier(t, nil, 10*time.Second, "post-restart convergence", func() bool {
		v := counterAt(c, 0)
		return v == ops+1 && counterAt(c, 1) == v && counterAt(c, 2) == v && counterAt(c, 3) == v
	})
}

// TestRestartTornTail corrupts the last bytes of the victim's newest
// segment on disk — a torn write — and requires recovery to stop at the
// last valid frame without panicking, then catch the lost suffix back up
// from the live quorum.
func TestRestartTornTail(t *testing.T) {
	cfg := durableConfig(t)
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	const ops = 6
	for i := 0; i < ops; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	c.waitFrontier(t, nil, 5*time.Second, "victim executes everything", func() bool {
		return counterAt(c, 1) == ops
	})
	flushWAL(c, 1)
	c.Kill(1)

	// Flip a bit near the end of the newest segment in replica 1's dir.
	dir := filepath.Join(cfg.WALDir, "r1")
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s: %v", dir, err)
	}
	sort.Strings(segs)
	tail := segs[len(segs)-1]
	b, err := os.ReadFile(tail)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if len(b) < 32 {
		t.Fatalf("segment too short to corrupt: %d bytes", len(b))
	}
	b[len(b)-3] ^= 0x40
	if err := os.WriteFile(tail, b, 0o644); err != nil {
		t.Fatalf("rewrite segment: %v", err)
	}

	c.Restart(1) // must not panic; replays the valid prefix only

	// Catch-up (retransmission or state transfer) covers the hole.
	mustInvoke(t, cl, kvservice.Incr(), false)
	c.waitFrontier(t, nil, 15*time.Second, "torn replica converges", func() bool {
		v := counterAt(c, 0)
		return v == ops+1 && counterAt(c, 1) == v && counterAt(c, 2) == v && counterAt(c, 3) == v
	})
}

// TestRestartAfterViewChange crashes a replica after the group has moved
// views; the replay must resume in the logged view (or rejoin via the
// pending-view retransmission path), not view 0.
func TestRestartAfterViewChange(t *testing.T) {
	cfg := durableConfig(t)
	cfg.ViewChangeTimeout = 200 * time.Millisecond
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	cl.MaxRetries = 40
	mustInvoke(t, cl, kvservice.Incr(), false)

	// Isolate the view-0 primary; the next request stalls until the
	// backups' timers fire and the group changes views, then executes.
	c.Net.Isolate(0)
	mustInvoke(t, cl, kvservice.Incr(), false)
	c.waitFrontier(t, nil, 10*time.Second, "victim executes in the new view", func() bool {
		return c.Replica(2).View() >= 1 && counterAt(c, 2) == 2
	})

	view := c.Replica(2).View()
	flushWAL(c, 2)
	c.Kill(2)
	r := c.Restart(2)
	c.waitFrontier(t, nil, 10*time.Second, "restarted replica resumes the view", func() bool {
		return r.View() >= view
	})

	c.Net.Heal()
	mustInvoke(t, cl, kvservice.Incr(), false)
	c.waitFrontier(t, nil, 15*time.Second, "post-restart convergence", func() bool {
		v := counterAt(c, 1)
		return v == 3 && counterAt(c, 2) == v && counterAt(c, 3) == v
	})
}
