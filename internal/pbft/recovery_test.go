package pbft

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/statemachine"
)

func counterAt(c *Cluster, i int) uint64 {
	var v uint64
	c.Replica(i).InspectService(func(s statemachine.Service) {
		v = kvservice.DecodeU64(s.Execute(message.ClientIDBase+9999, kvservice.Get(), nil))
	})
	return v
}

func TestManualRecoveryCompletes(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 8
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	for i := 0; i < 8; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}

	// Recover backup 3.
	c.Replica(3).Recover()
	c.waitFrontier(t, nil, 10*time.Second, "recovery to finish", func() bool {
		return !c.Replica(3).Recovering()
	})
	m := c.Replica(3).Metrics()
	if m.Recoveries != 1 {
		t.Fatalf("recoveries = %d", m.Recoveries)
	}
	if m.LastRecoveryTime <= 0 {
		t.Fatal("recovery time not recorded")
	}
	// Service still works and the recovered replica still tracks state.
	for i := 9; i <= 12; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
	c.waitFrontier(t, nil, 5*time.Second, "replica 3 to catch up", func() bool {
		return counterAt(c, 3) == 12
	})
}

func TestRecoveryOfPrimaryHandsOffView(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 8
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	cl.MaxRetries = 20
	for i := 0; i < 4; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	c.Replica(0).Recover() // primary of view 0
	c.waitFrontier(t, nil, 10*time.Second, "primary recovery", func() bool {
		return !c.Replica(0).Recovering()
	})
	// The group must have moved past view 0 (recovering primary resigns).
	moved := false
	for i := 0; i < 4; i++ {
		if c.Replica(i).View() > 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("no replica left view 0 after primary recovery")
	}
	for i := 5; i <= 8; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
}

func TestRecoveryDetectsCorruptState(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 8
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	for i := 0; i < 8; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	// Wait for a stable checkpoint on replica 2 so recovery has a base.
	c.waitFrontier(t, nil, 5*time.Second, "stable checkpoint", func() bool {
		return c.Replica(2).LowWaterMark() > 0
	})

	// An attacker flips bytes in replica 2's state behind the library.
	c.Replica(2).CorruptStatePage(0)

	c.Replica(2).Recover()
	c.waitFrontier(t, nil, 10*time.Second, "recovery with repair", func() bool {
		return !c.Replica(2).Recovering()
	})
	m := c.Replica(2).Metrics()
	if m.PagesFetched == 0 {
		t.Fatal("corrupt page was not re-fetched during recovery")
	}
	// State must match the group again after repair and catch-up.
	c.waitFrontier(t, nil, 5*time.Second, "repaired state", func() bool {
		return counterAt(c, 2) == counterAt(c, 0)
	})
}

// TestRecoveryRepairsUnwrittenPage pins recovery's state check (§5.3.3,
// startStateCheck). A checkpoint re-digests only the pages the service
// wrote since the last one, so a page corrupted behind the library's back
// and never written again keeps its old, correct digest: checkpoints and
// state transfer cannot see the damage, and only the full recomputation
// recovery runs finds and re-fetches it.
func TestRecoveryRepairsUnwrittenPage(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 8
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	for i := 0; i < 8; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	c.waitFrontier(t, nil, 5*time.Second, "stable checkpoint", func() bool {
		return c.Replica(2).LowWaterMark() > 0
	})

	// Page 1 holds registers; Incr writes only the counter on page 0.
	const page = 1
	pageAt := func(i int) []byte {
		r := c.Replica(i)
		var b []byte
		r.do(func() { b = bytes.Clone(r.region.Page(page)) })
		return b
	}
	c.Replica(2).CorruptStatePage(page)
	if bytes.Equal(pageAt(2), pageAt(0)) {
		t.Fatal("corruption left the page unchanged")
	}
	c.Replica(2).Recover()
	c.waitFrontier(t, nil, 10*time.Second, "recovery", func() bool {
		return !c.Replica(2).Recovering()
	})
	c.waitFrontier(t, nil, 5*time.Second, "the corrupted page to be repaired", func() bool {
		return bytes.Equal(pageAt(2), pageAt(0))
	})
	var treeErr error
	r2 := c.Replica(2)
	r2.do(func() { treeErr = r2.ckpt.VerifyTree() })
	if treeErr != nil {
		t.Fatalf("recovered replica's partition tree: %v", treeErr)
	}

	// StateDigest is the partition tree's root as of the last checkpoint;
	// after the next stable one the recovered replica agrees with its peers.
	low := r2.LowWaterMark()
	for i := 0; i < 2*int(cfg.CheckpointInterval); i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	c.waitFrontier(t, []int{0, 1, 2, 3}, 5*time.Second, "equal state digests after the next stable checkpoint", func() bool {
		if r2.LowWaterMark() <= low {
			return false
		}
		d := r2.StateDigest()
		for _, i := range []int{0, 1, 3} {
			if c.Replica(i).StateDigest() != d {
				return false
			}
		}
		return true
	})
}

func TestWatchdogPeriodicRecovery(t *testing.T) {
	// The watchdog period must comfortably exceed recovery time (the
	// thesis's Tw = 4*s*Rn constraint, §4.3.3); recoveries here take
	// ~100-300ms, so fire per-replica watchdogs about a second apart.
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 8
	cfg.WatchdogInterval = 1 * time.Second
	cfg.KeyRefreshInterval = 500 * time.Millisecond
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	cl.RetryTimeout = 200 * time.Millisecond
	cl.MaxRetries = 40

	// Keep the system busy while watchdogs fire; run long enough for every
	// staggered watchdog to trigger (stagger spreads them over ~2 periods).
	// Correctness (exactly-once, ordering) must hold unconditionally; a
	// transient liveness blip is tolerated once — this configuration churns
	// far beyond the paper's own envelope (its watchdog period of minutes
	// dwarfs recovery time, §4.3.3's Tw = 4*s*Rn).
	deadline := time.Now().Add(3 * time.Second)
	count := uint64(0)
	blips := 0
	for time.Now().Before(deadline) {
		res, err := cl.Invoke(kvservice.Incr(), false)
		if err != nil {
			blips++
			if blips > 1 {
				t.Fatalf("system wedged repeatedly under recovery churn: %v", err)
			}
			continue
		}
		count++
		if got := kvservice.DecodeU64(res); got != count {
			t.Fatalf("incr %d returned %d during proactive recovery", count, got)
		}
	}
	// Every replica should have started at least one recovery, and at
	// least one must have completed somewhere.
	completed := uint64(0)
	for i := 0; i < 4; i++ {
		m := c.Replica(i).Metrics()
		if m.Recoveries == 0 {
			t.Fatalf("replica %d never recovered (watchdog dead)", i)
		}
		completed += m.RecoveriesCompleted
	}
	if completed == 0 {
		t.Fatal("no recovery ever completed")
	}
}

func TestKeyRefreshKeepsClusterLive(t *testing.T) {
	cfg := testConfig()
	cfg.KeyRefreshInterval = 100 * time.Millisecond
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	cl.MaxRetries = 20
	for i := 1; i <= 20; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d across key refreshes", i, got)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestStateTransferAfterLongPartition(t *testing.T) {
	// Like TestRejoinAfterPartition but long enough that the log window has
	// been garbage collected: rejoining requires a real state transfer.
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 8
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.MaxRetries = 20

	c.Net.Isolate(3)
	for i := 1; i <= 40; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	// Ensure the others GC'd past replica 3's window.
	c.waitFrontier(t, nil, 5*time.Second, "group GC", func() bool {
		return c.Replica(0).LowWaterMark() >= 16
	})
	c.Net.Heal()

	c.waitFrontier(t, nil, 10*time.Second, "replica 3 state transfer", func() bool {
		return counterAt(c, 3) == 40
	})
	if m := c.Replica(3).Metrics(); m.StateTransfers == 0 || m.PagesFetched == 0 {
		t.Fatalf("rejoin did not use state transfer: %+v", m)
	}
}

func TestPRModeEndToEnd(t *testing.T) {
	// Full BFT-PR: watchdog recoveries + key refreshes + a crashed replica.
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 8
	cfg.WatchdogInterval = 1200 * time.Millisecond
	cfg.KeyRefreshInterval = 600 * time.Millisecond
	c := newTestCluster(t, 4, cfg, map[message.NodeID]Behavior{3: Crashed})
	cl := c.NewClient()
	cl.MaxRetries = 30
	for i := 1; i <= 15; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
		time.Sleep(30 * time.Millisecond)
	}
}
