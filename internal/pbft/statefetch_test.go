package pbft

import (
	"testing"
	"time"

	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/simnet"
)

// dropServeTraffic installs a simnet filter that drops MetaData and Data
// datagrams destined to dst — the fetcher can ask, learn of checkpoints, and
// run the protocol, but no state-transfer reply ever reaches it.
func dropServeTraffic(c *Cluster, dst message.NodeID) {
	c.Net.SetFilter(func(_, to message.NodeID, p []byte) ([]byte, bool) {
		if to == dst && len(p) > 0 &&
			(p[0] == byte(message.TMetaData) || p[0] == byte(message.TData)) {
			return nil, false
		}
		return p, true
	})
}

// TestStateTransferRetargetsWhenTargetCollected is the wedge regression:
// a replica with an ACTIVE transfer whose target checkpoint has been
// garbage-collected at every peer used to re-send the same doomed Fetch
// every 150 ms forever — the fallback meta-data was dropped for digest
// mismatch, and maybeStartTransfer refused to record a newer candidate
// while fetch.active. The fix re-targets the active transfer once a weak
// certificate (f+1 votes, assembled from the serving replicas' re-sent
// Checkpoint votes) forms for a newer stable checkpoint.
func TestStateTransferRetargetsWhenTargetCollected(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 16
	// The wedged phases leave requests queued at the laggard for seconds;
	// keep it from drifting into lonely view changes while wedged.
	cfg.ViewChangeTimeout = 5 * time.Second
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	cl.MaxRetries = 20

	// Phase 1: replica 3 misses seqs 1..10; the others stabilize 8.
	c.Net.Isolate(3)
	for i := 0; i < 10; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	c.waitFrontier(t, nil, 5*time.Second, "group stabilizes 8", func() bool {
		return c.Replica(0).LowWaterMark() >= 8
	})

	// Phase 2: heal, but block every state-transfer reply to 3. It learns
	// of checkpoint 8 (within its water marks: High = 0+16), promotes the
	// candidate, and is left with an active transfer it cannot complete.
	dropServeTraffic(c, 3)
	c.Net.Heal()
	c.waitFrontier(t, nil, 10*time.Second, "replica 3 starts a transfer", func() bool {
		return c.Replica(3).Metrics().StateTransfers >= 1
	})

	// Phase 3: the cluster moves on to seq 17 and stabilizes 16, so the
	// snapshot for 3's fetch target is discarded at every peer. The cluster
	// then goes idle: no checkpoint beyond 3's water marks will ever form,
	// so the old immediate-restart path can never fire.
	for i := 0; i < 7; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	for i := 0; i < 3; i++ {
		c.waitFrontier(t, nil, 5*time.Second, "group collects the old target", func() bool {
			return c.Replica(i).LowWaterMark() >= 16
		})
	}

	// Phase 4: un-block serving. The doomed Fetch now draws Checkpoint
	// votes for 16 from the fallback path; the weak certificate re-targets
	// the active transfer and the catch-up completes without any new
	// client traffic.
	c.Net.SetFilter(nil)
	c.waitFrontier(t, nil, 10*time.Second, "replica 3 catches up", func() bool {
		return counterAt(c, 3) == 17
	})
	m := c.Replica(3).Metrics()
	if m.StateTransfers < 2 {
		t.Fatalf("transfer never re-targeted: %d transfers", m.StateTransfers)
	}
	if m.PagesFetched == 0 || m.TransferBytes == 0 {
		t.Fatalf("catch-up did not move state: %+v", m)
	}
	if m.LastTransferTime <= 0 {
		t.Fatalf("LastTransferTime not recorded: %+v", m)
	}
}

// TestWindowedTransferByzantineReplier stripes a window across repliers of
// which one is Byzantine for state transfer: replica 2's Data pages are
// corrupted in flight and its MetaData withheld. The digest checks must keep
// corrupt pages out of the installed state, per-item retries must route the
// stalled items to honest repliers, and the transfer must still complete.
func TestWindowedTransferByzantineReplier(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 8
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	cl.MaxRetries = 20

	c.Net.Isolate(3)
	for i := 0; i < 40; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	c.waitFrontier(t, nil, 5*time.Second, "group GC", func() bool {
		return c.Replica(0).LowWaterMark() >= 16
	})
	c.Net.SetFilter(func(src, dst message.NodeID, p []byte) ([]byte, bool) {
		if src != 2 || dst != 3 || len(p) == 0 {
			return p, true
		}
		switch p[0] {
		case byte(message.TMetaData):
			return nil, false // withheld: the item times out and rotates
		case byte(message.TData):
			if len(p) > 40 {
				q := append([]byte(nil), p...)
				q[40] ^= 0xFF // corrupt page content: digest check must catch it
				return q, true
			}
		}
		return p, true
	})
	c.Net.Heal()

	c.waitFrontier(t, nil, 15*time.Second, "catch-up despite Byzantine replier", func() bool {
		return counterAt(c, 3) == 40
	})
	m := c.Replica(3).Metrics()
	if m.StateTransfers == 0 || m.PagesFetched == 0 {
		t.Fatalf("rejoin did not use state transfer: %+v", m)
	}
	if m.FetchRetries == 0 {
		t.Fatalf("expected per-item retries away from the Byzantine replier: %+v", m)
	}
	c.Net.SetFilter(nil)
	c.waitFrontier(t, nil, 5*time.Second, "state digests converge", func() bool {
		return c.Replica(3).StateDigest() == c.Replica(0).StateDigest()
	})
}

// TestWindowedTransferSurvivesViewChangeUnderLoad runs a windowed transfer
// concurrently with normal-case traffic and kills the primary mid-transfer:
// the rejoining replica must catch up through the view change and the
// cluster must stay live and consistent (with the old primary isolated the
// quorum NEEDS the rejoiner).
func TestWindowedTransferSurvivesViewChangeUnderLoad(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 8
	// Long enough that the mid-transfer rejoiner (and later the healed old
	// primary) drains its queue before its own timer fires even under the
	// race detector's slowdown — a lone early view change would strand it
	// ahead of the group — while still converting the primary's death into
	// a group view change well inside the phase budgets.
	cfg.ViewChangeTimeout = 2 * time.Second
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	cl.MaxRetries = 40

	c.Net.Isolate(3)
	for i := 0; i < 30; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	c.waitFrontier(t, nil, 5*time.Second, "group GC", func() bool {
		return c.Replica(0).LowWaterMark() >= 16
	})

	// Normal-case load that keeps flowing through heal and failover.
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
			loader.Invoke(kvservice.Incr(), false) //nolint:errcheck
		}
	}()

	c.Net.Heal()
	c.waitFrontier(t, nil, 10*time.Second, "transfer starts", func() bool {
		return c.Replica(3).Metrics().StateTransfers >= 1
	})
	c.Net.Isolate(0) // primary of view 0 dies mid-transfer
	// The surviving quorum is {1, 2, 3}: the view change can only complete
	// with the still-catching-up rejoiner participating.
	c.waitFrontier(t, nil, 20*time.Second, "group view change completes", func() bool {
		return c.Replica(1).Metrics().NewViewsProcessed >= 1 &&
			c.Replica(2).Metrics().NewViewsProcessed >= 1 &&
			c.Replica(3).Metrics().NewViewsProcessed >= 1
	})
	c.waitFrontier(t, nil, 20*time.Second, "catch-up through the view change", func() bool {
		return c.Replica(3).Metrics().PagesFetched > 0 &&
			c.Replica(3).LastExecuted() >= 30
	})
	close(stop)
	<-done

	// Quiesce the surviving quorum before healing the old primary back in:
	// a healed replica racing live traffic can time out into a lonely view
	// change (a liveness scenario of its own, not this test's subject), and
	// f=1 tolerates it — but this test wants full convergence.
	c.waitFrontier(t, nil, 10*time.Second, "surviving quorum quiesces", func() bool {
		v := counterAt(c, 1)
		return v >= 30 && counterAt(c, 2) == v && counterAt(c, 3) == v
	})
	c.Net.Heal()
	// The old primary catches back up (by transfer or retransmission)
	// before new traffic arrives — otherwise its view-change timer can
	// fire mid-rejoin and strand it in a lonely higher view.
	c.waitFrontier(t, nil, 10*time.Second, "old primary rejoins", func() bool {
		return counterAt(c, 0) == counterAt(c, 1)
	})

	// Liveness after the dust settles, then convergence everywhere.
	mustInvoke(t, cl, kvservice.Incr(), false)
	c.waitFrontier(t, nil, 10*time.Second, "counters converge", func() bool {
		v := counterAt(c, 0)
		return v >= 31 && counterAt(c, 1) == v && counterAt(c, 2) == v && counterAt(c, 3) == v
	})
}

// TestStateTransferSerialWindowAblation pins FetchWindow=1 — the serial
// engine the windowed rewrite must preserve for the ablation — and runs the
// classic collected-log rejoin.
func TestStateTransferSerialWindowAblation(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 8
	cfg.Opt.FetchWindow = 1
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	cl.MaxRetries = 20

	c.Net.Isolate(3)
	for i := 0; i < 40; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	c.waitFrontier(t, nil, 5*time.Second, "group GC", func() bool {
		return c.Replica(0).LowWaterMark() >= 16
	})
	c.Net.Heal()
	c.waitFrontier(t, nil, 10*time.Second, "serial-window catch-up", func() bool {
		return counterAt(c, 3) == 40
	})
	if m := c.Replica(3).Metrics(); m.StateTransfers == 0 || m.PagesFetched == 0 {
		t.Fatalf("rejoin did not use state transfer: %+v", m)
	}
}

// TestFetchWindowDefault pins the Validate default so the ablation knob and
// the windowed default cannot silently drift.
func TestFetchWindowDefault(t *testing.T) {
	var cfg Config
	cfg.Validate()
	if cfg.Opt.FetchWindow != 8 {
		t.Fatalf("FetchWindow default = %d, want 8", cfg.Opt.FetchWindow)
	}
	if w := DefaultOptions().FetchWindow; w != 8 {
		t.Fatalf("DefaultOptions().FetchWindow = %d, want 8", w)
	}
}

// BenchmarkStateTransferWindow1 / BenchmarkStateTransferWindow8 measure one
// collected-log rejoin on a simnet with 1 ms links: the laggard's only way
// back is a hierarchical state transfer (§5.3.2). The serial ablation
// (window=1) pays roughly one round trip per differing partition; the
// windowed engine keeps 8 fetches in flight across distinct repliers, so
// the same transfer completes in measurably fewer round-trip cycles.
func BenchmarkStateTransferWindow1(b *testing.B) { benchStateTransfer(b, 1) }
func BenchmarkStateTransferWindow8(b *testing.B) { benchStateTransfer(b, 8) }

func benchStateTransfer(b *testing.B, window int) {
	var total time.Duration
	var retries uint64
	for i := 0; i < b.N; i++ {
		cfg := Config{
			Mode:               ModeMAC,
			Opt:                DefaultOptions(),
			CheckpointInterval: 8,
			LogWindow:          16,
			ViewChangeTimeout:  5 * time.Second,
			StatusInterval:     50 * time.Millisecond,
			StateSize:          kvservice.MinStateSize + 128*1024,
			Seed:               1,
		}
		cfg.Opt.FetchWindow = window
		net := simnet.New(simnet.WithSeed(int64(13+i)),
			simnet.WithDefaults(simnet.LinkConfig{Latency: time.Millisecond}))
		c := NewCluster(net, cfg, 4, kvservice.Factory, nil)
		c.Start()
		cl := c.NewClient()
		cl.RetryTimeout = time.Second
		cl.MaxRetries = 20

		c.Net.Isolate(3)
		blob := make([]byte, 2048)
		for j := 0; j < 40; j++ {
			blob[0] = byte(j)
			if _, err := cl.Invoke(kvservice.WriteBlob(blob), false); err != nil {
				b.Fatal(err)
			}
		}
		deadline := time.Now().Add(10 * time.Second)
		for c.Replica(0).LowWaterMark() < 32 {
			if time.Now().After(deadline) {
				b.Fatal("group never collected the laggard's window")
			}
			time.Sleep(2 * time.Millisecond)
		}
		target := c.Replica(0).LastExecuted()
		heal := time.Now()
		c.Net.Heal()
		for c.Replica(3).LastExecuted() < target {
			if time.Since(heal) > 30*time.Second {
				b.Fatal("laggard never caught up")
			}
			time.Sleep(2 * time.Millisecond)
		}
		total += time.Since(heal)
		retries += c.Replica(3).Metrics().FetchRetries
		c.Stop()
		net.Close()
	}
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "ms/catchup")
	b.ReportMetric(float64(retries)/float64(b.N), "retries/catchup")
}
