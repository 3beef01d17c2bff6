package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/bfs"
	"repro/internal/checkpoint"
	"repro/internal/crypto"
	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/pbft"
	"repro/internal/perfmodel"
	"repro/internal/simnet"
	"repro/internal/statemachine"
	"repro/internal/workload"
)

// E5Checkpoint measures checkpoint creation cost directly on the manager:
// cost must track the number of pages modified per epoch, not state size
// (Table 8.12's point).
func E5Checkpoint(scale int) []*Table {
	t := &Table{
		ID:     "E5",
		Title:  "checkpoint creation cost (per checkpoint)",
		Header: []string{"state", "pages touched", "take time (us)", "cow copies", "digests"},
	}
	iters := 5 * scale
	for _, mb := range []int{1, 4, 16} {
		size := mb << 20
		pageSize := 4096
		pages := size / pageSize
		for _, frac := range []float64{0.01, 0.10, 1.00} {
			touched := int(float64(pages) * frac)
			if touched < 1 {
				touched = 1
			}
			region := statemachine.NewRegion(size, pageSize)
			mgr := checkpoint.NewManager(region, 16)
			var total time.Duration
			var copies, digs uint64
			seq := message.Seq(0)
			for i := 0; i < iters; i++ {
				for p := 0; p < touched; p++ {
					region.WriteAt(p*pageSize+(i%pageSize), []byte{byte(i)})
				}
				c0, d0 := mgr.PagesCopied, mgr.PagesDigested
				seq += 128
				t0 := time.Now()
				mgr.Take(seq, nil)
				total += time.Since(t0)
				copies += mgr.PagesCopied - c0
				digs += mgr.PagesDigested - d0
				mgr.DiscardBefore(seq) // keep snapshot count bounded
			}
			t.Add(fmt.Sprintf("%dMB", mb), fmt.Sprintf("%d (%.0f%%)", touched, frac*100),
				us(total/time.Duration(iters)),
				fmt.Sprintf("%d", copies/uint64(iters)),
				fmt.Sprintf("%d", digs/uint64(iters)))
		}
	}
	t.Note("paper shape: cost proportional to modified pages (copy-on-write + incremental digests), independent of total state size")
	return []*Table{t, e5Live(scale)}
}

// e5Live measures the same checkpoint counters at a LIVE replica through
// Replica.Metrics() — copy-on-write copies, page digests, and cumulative
// digest latency now surface without reaching into the manager (which the
// staged executor owns). The inline/staged pair shows the executor moving
// that cost off the event loop without changing what is digested.
func e5Live(scale int) *Table {
	t := &Table{
		ID:     "E5",
		Title:  "checkpointing at a live replica (via Replica.Metrics())",
		Header: []string{"execution", "ckpts", "cow copies", "digests", "digest time (us/ckpt)", "exec stalls"},
	}
	for _, staged := range []bool{false, true} {
		name := "inline"
		if staged {
			name = "staged"
		}
		cfg := benchConfig(pbft.ModeMAC)
		cfg.CheckpointInterval = 8
		cfg.LogWindow = 16
		cfg.Opt.ExecPipeline = staged
		c := pbft.NewLocalCluster(4, cfg, kvservice.Factory, nil)
		c.Start()
		cl := c.NewClient()
		blob := make([]byte, 2048)
		for i := 0; i < 48*scale; i++ {
			blob[0] = byte(i)
			if _, err := cl.Invoke(kvservice.WriteBlob(blob), false); err != nil {
				t.Note("%s run truncated at op %d: %v", name, i, err)
				break
			}
		}
		// Read the primary: its agreement window keeps its execution close
		// behind its own pre-prepares, so it takes every checkpoint itself.
		// A backup outside the quorum of a slow host may legitimately skip
		// checkpoints by state transfer and record no checkpoint work.
		m := c.Replica(0).Metrics()
		perCkpt := "-"
		if m.CheckpointsTaken > 0 {
			perCkpt = us(m.CkptDigestTime / time.Duration(m.CheckpointsTaken))
		}
		t.Add(name, fmt.Sprintf("%d", m.CheckpointsTaken),
			fmt.Sprintf("%d", m.PagesCopied), fmt.Sprintf("%d", m.PagesDigested),
			perCkpt, fmt.Sprintf("%d", m.ExecStalls))
		c.Stop()
	}
	t.Note("staged rows run checkpoint digesting on the executor goroutine; counters flow through Replica.Metrics() either way")
	return t
}

// E6StateTransfer measures how long a lagging replica takes to fetch state
// as a function of how much of it changed while it was partitioned away.
func E6StateTransfer(scale int) []*Table {
	t := &Table{
		ID:     "E6",
		Title:  "state transfer: catch-up after a partition",
		Header: []string{"ops while away", "bytes written", "catch-up (ms)", "pages fetched"},
	}
	for _, ops := range []int{20, 40, 80} {
		n := ops * scale
		cfg := benchConfig(pbft.ModeMAC)
		cfg.CheckpointInterval = 8
		cfg.LogWindow = 16
		cfg.Opt.Batching = false
		c := pbft.NewLocalCluster(4, cfg, kvservice.Factory, nil)
		c.Start()
		cl := c.NewClient()
		cl.MaxRetries = 20

		c.Net.Isolate(3)
		blob := make([]byte, 2048)
		for i := 0; i < n; i++ {
			blob[0] = byte(i)
			if _, err := cl.Invoke(kvservice.WriteBlob(blob), false); err != nil {
				break
			}
		}
		heal := time.Now()
		c.Net.Heal()
		// Wait for replica 3 to reach the same executed height.
		target := c.Replica(0).LastExecuted()
		var catchUp time.Duration
		for {
			if c.Replica(3).LastExecuted() >= target {
				catchUp = time.Since(heal)
				break
			}
			if time.Since(heal) > 30*time.Second {
				catchUp = -1
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		m := c.Replica(3).Metrics()
		t.Add(fmt.Sprintf("%d", n), fmt.Sprintf("%d", n*2048),
			ms(catchUp), fmt.Sprintf("%d", m.PagesFetched))
		c.Stop()
	}
	t.Note("paper shape: transfer time grows with the amount of out-of-date state; only differing partitions travel")
	return []*Table{t, e6CatchUpUnderLoad(scale)}
}

// e6CatchUpUnderLoad measures the recovery-dominates-practice scenario: a
// rejoining replica whose log window was collected cluster-wide must catch a
// cluster that KEEPS serving write traffic, over links with real latency.
// The serial engine (FetchWindow=1) pays one round trip per differing
// partition; the windowed engine keeps 8 fetches in flight across distinct
// repliers, so the same transfer costs measurably fewer round-trip cycles.
// The transfer-observability metrics (LastTransferTime / TransferBytes /
// FetchRetries) surface through Replica.Metrics() like the checkpoint
// counters in the E5 live-replica table.
func e6CatchUpUnderLoad(scale int) *Table {
	t := &Table{
		ID:     "E6",
		Title:  "catch-up under load: windowed vs serial partition fetch (1ms links)",
		Header: []string{"fetch window", "catch-up (ms)", "transfer (ms)", "pages", "KB moved", "retries"},
	}
	for _, w := range []int{1, 8} {
		cfg := benchConfig(pbft.ModeMAC)
		cfg.CheckpointInterval = 8
		cfg.LogWindow = 16
		cfg.Opt.FetchWindow = w
		net := simnet.New(simnet.WithSeed(11),
			simnet.WithDefaults(simnet.LinkConfig{Latency: time.Millisecond}))
		c := pbft.NewCluster(net, cfg, 4, kvservice.Factory, nil)
		c.Start()
		cl := c.NewClient()
		cl.MaxRetries = 20

		// While the laggard is away, dirty a spread of blob pages and run
		// far past the log window so rejoin requires a real transfer.
		c.Net.Isolate(3)
		blob := make([]byte, 2048)
		for i := 0; i < 40*scale; i++ {
			blob[0] = byte(i)
			if _, err := cl.Invoke(kvservice.WriteBlob(blob), false); err != nil {
				t.Note("window=%d setup truncated at op %d: %v", w, i, err)
				break
			}
		}

		// Background writes keep flowing while the laggard catches up.
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
				loader.Invoke(kvservice.WriteBlob(blob), false) //nolint:errcheck
			}
		}()

		heal := time.Now()
		c.Net.Heal()
		var catchUp time.Duration
		for {
			frontier := c.Replica(0).LastExecuted()
			if c.Replica(3).LastExecuted() >= frontier {
				catchUp = time.Since(heal)
				break
			}
			if time.Since(heal) > 60*time.Second {
				catchUp = -1
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
		close(stop)
		<-done
		m := c.Replica(3).Metrics()
		t.Add(fmt.Sprintf("%d", w), ms(catchUp), ms(m.LastTransferTime),
			fmt.Sprintf("%d", m.PagesFetched),
			fmt.Sprintf("%d", m.TransferBytes/1024),
			fmt.Sprintf("%d", m.FetchRetries))
		c.Stop()
		net.Close()
	}
	t.Note("catch-up = heal to frontier reached while writes continue; window=8 overlaps fetch round trips that window=1 serializes")
	return t
}

// E7ViewChange measures client-visible failover time when the primary dies,
// idle and under load.
func E7ViewChange(scale int) []*Table {
	t := &Table{
		ID:     "E7",
		Title:  "view change: client-visible failover after primary failure",
		Header: []string{"condition", "trial", "failover (ms)", "view changes"},
	}
	trials := 2 * scale
	for _, loaded := range []bool{false, true} {
		cond := "idle"
		if loaded {
			cond = "loaded"
		}
		for trial := 0; trial < trials; trial++ {
			cfg := benchConfig(pbft.ModeMAC)
			cfg.ViewChangeTimeout = 100 * time.Millisecond
			c := pbft.NewLocalCluster(4, cfg, kvservice.Factory, nil)
			c.Start()
			cl := c.NewClient()
			cl.RetryTimeout = 60 * time.Millisecond
			cl.MaxRetries = 40

			if _, err := cl.Invoke(kvservice.Incr(), false); err != nil {
				c.Stop()
				continue
			}
			stopLoad := make(chan struct{})
			if loaded {
				for i := 0; i < 4; i++ {
					lc := c.NewClient()
					lc.RetryTimeout = 60 * time.Millisecond
					lc.MaxRetries = 40
					go func() {
						for {
							select {
							case <-stopLoad:
								return
							default:
								lc.Invoke(kvservice.Incr(), false) //nolint:errcheck
							}
						}
					}()
				}
			}
			c.Net.Isolate(0)
			t0 := time.Now()
			_, err := cl.Invoke(kvservice.Incr(), false)
			fail := time.Since(t0)
			close(stopLoad)
			vcs := c.Replica(1).Metrics().ViewChanges
			if err != nil {
				t.Add(cond, fmt.Sprintf("%d", trial), "timeout", fmt.Sprintf("%d", vcs))
			} else {
				t.Add(cond, fmt.Sprintf("%d", trial), ms(fail), fmt.Sprintf("%d", vcs))
			}
			c.Stop()
		}
	}
	t.Note("failover ≈ view-change timeout + new-view protocol; paper reports view changes complete in tens of ms once triggered")
	return []*Table{t}
}

// E8BFS regenerates the Andrew-benchmark comparison: BFS (with and without
// the read-only optimization) against the unreplicated baseline.
func E8BFS(scale int) []*Table {
	t := &Table{
		ID:     "E8",
		Title:  fmt.Sprintf("BFS: Andrew-style benchmark, scale %d (times in ms)", scale),
		Header: []string{"phase", "BFS", "BFS-strict", "NO-REP", "BFS/NO-REP"},
	}
	run := func(strict bool) (workloadAndrew [5]time.Duration, total time.Duration, err error) {
		cfg := benchConfig(pbft.ModeMAC)
		cfg.StateSize = bfs.MinRegionSize(8192 * scale)
		c := pbft.NewLocalCluster(4, cfg, bfs.Factory, nil)
		c.Start()
		defer c.Stop()
		cl := c.NewClient()
		cl.MaxRetries = 20
		fc := bfs.NewClient(cl)
		fc.Strict = strict
		at, err := workload.RunAndrew(fc, scale)
		return at.Phase, at.Total, err
	}
	bftPhases, bftTotal, err1 := run(false)
	strictPhases, strictTotal, err2 := run(true)

	// NO-REP: the same file system behind the unreplicated server.
	var basePhases [5]time.Duration
	var baseTotal time.Duration
	var err3 error
	{
		net := simnet.New(simnet.WithSeed(8))
		srv := baseline.NewServer(net, bfs.MinRegionSize(8192*scale), 4096, bfs.Factory)
		srv.Start()
		cl := baseline.NewClient(message.ClientIDBase, net)
		fc := bfs.NewClient(cl)
		var at workload.AndrewTimes
		at, err3 = workload.RunAndrew(fc, scale)
		basePhases, baseTotal = at.Phase, at.Total
		cl.Close()
		srv.Stop()
		net.Close()
	}
	if err1 != nil || err2 != nil || err3 != nil {
		t.Note("errors: bfs=%v strict=%v norep=%v", err1, err2, err3)
	}
	for i := 0; i < 5; i++ {
		t.Add(workload.PhaseNames[i], ms(bftPhases[i]), ms(strictPhases[i]), ms(basePhases[i]),
			ratio(bftPhases[i], basePhases[i]))
	}
	t.Add("total", ms(bftTotal), ms(strictTotal), ms(baseTotal), ratio(bftTotal, baseTotal))
	t.Note("paper shape: BFS within a small factor of the unreplicated service; read-only-heavy phases (stat/read) benefit most from the optimization; strict mode is slower")
	return []*Table{t}
}

// E9Recovery measures proactive recovery: throughput with and without the
// watchdog, and the recovery durations themselves.
func E9Recovery(scale int) []*Table {
	t := &Table{
		ID:     "E9",
		Title:  "proactive recovery (BFT-PR)",
		Header: []string{"configuration", "ops/s", "recoveries started", "completed", "max recovery (ms)"},
	}
	run := func(watchdog time.Duration) (float64, uint64, uint64, time.Duration) {
		cfg := benchConfig(pbft.ModeMAC)
		cfg.CheckpointInterval = 16
		cfg.LogWindow = 32
		cfg.WatchdogInterval = watchdog
		if watchdog > 0 {
			cfg.KeyRefreshInterval = watchdog / 2
		}
		c := pbft.NewLocalCluster(4, cfg, kvservice.Factory, nil)
		c.Start()
		defer c.Stop()
		// Run long enough for every replica's watchdog to fire at least
		// once (the recovery schedule is staggered across the group).
		duration := 2 * time.Second * time.Duration(scale)
		if watchdog > 0 && duration < 4*watchdog {
			duration = 4 * watchdog // let the last staggered recovery finish
		}
		deadline := time.Now().Add(duration)
		st := workload.RunClosed(func() workload.Invoker {
			cl := c.NewClient()
			cl.MaxRetries = 30
			return cl
		}, 4, 1<<30, func(i int) ([]byte, bool) {
			if time.Now().After(deadline) {
				return nil, false // nil op returns immediately server-side
			}
			return kvservice.Incr(), false
		})
		_ = st
		var recs, done uint64
		var maxRec time.Duration
		for i := 0; i < 4; i++ {
			m := c.Replica(i).Metrics()
			recs += m.Recoveries
			done += m.RecoveriesCompleted
			if m.LastRecoveryTime > maxRec {
				maxRec = m.LastRecoveryTime
			}
		}
		return st.Throughput(), recs, done, maxRec
	}
	tp0, _, _, _ := run(0)
	t.Add("no recovery", fmt.Sprintf("%.0f", tp0), "0", "0", "-")
	for _, wd := range []time.Duration{1200 * time.Millisecond, 600 * time.Millisecond} {
		tp, recs, done, maxRec := run(wd)
		t.Add(fmt.Sprintf("watchdog %v", wd), fmt.Sprintf("%.0f", tp),
			fmt.Sprintf("%d", recs), fmt.Sprintf("%d", done), ms(maxRec))
	}
	t.Note("paper shape: frequent recovery costs some throughput but the service stays available; recoveries are staggered so at most f replicas recover at once")
	return []*Table{t}
}

// E10Model compares the Chapter 7 analytic model against measurement.
func E10Model(scale int) []*Table {
	iters := 20 * scale
	t := &Table{
		ID:     "E10",
		Title:  "analytic model vs measured latency (ms)",
		Header: []string{"op", "mode", "predicted", "measured", "pred/meas"},
	}
	p := perfmodel.Calibrate(4, simnet.LinkConfig{})

	c := newKVCluster(4, benchConfig(pbft.ModeMAC))
	cl := c.NewClient()
	type probe struct {
		name string
		op   []byte
		ro   bool
		pred time.Duration
	}
	probes := []probe{
		{"0/0 rw", kvservice.Noop(), false, p.LatencyReadWrite(1, 8, false, true)},
		{"4/0 rw", kvservice.WriteBlob(make([]byte, 4096)), false, p.LatencyReadWrite(4097, 8, false, true)},
		{"0/4 ro", kvservice.ReadBlob(4096), true, p.LatencyReadOnly(5, 4096, false)},
	}
	for _, pr := range probes {
		ro := pr.ro
		st := workload.MeasureLatency(cl, iters, func(int) ([]byte, bool) { return pr.op, ro })
		t.Add(pr.name, "BFT", ms(pr.pred), ms(st.Mean()), ratio(pr.pred, st.Mean()))
	}
	c.Stop()

	cpk := newKVCluster(4, benchConfig(pbft.ModePK))
	clpk := cpk.NewClient()
	st := workload.MeasureLatency(clpk, iters/2+1, func(int) ([]byte, bool) { return kvservice.Noop(), false })
	pred := p.LatencyReadWrite(1, 8, true, true)
	t.Add("0/0 rw", "BFT-PK", ms(pred), ms(st.Mean()), ratio(pred, st.Mean()))
	cpk.Stop()

	t.Note("calibrated: digest %v + %v/B, MAC %v, sig %v/%v, comm %v + %v/B",
		p.DigestFixed, p.DigestPerByte, p.MACOp, p.SigGen, p.SigVerify, p.CommFixed, p.CommPerByte)
	t.Note("paper shape: the model tracks measurements within a small factor and predicts the BFT-PK gap")
	return []*Table{t}
}

// E11AuthCrossover measures authenticator generation (n-1 MACs) against one
// signature as the group grows — the §3.2.1 claim that MACs win until n is
// in the hundreds.
func E11AuthCrossover(scale int) []*Table {
	t := &Table{
		ID:     "E11",
		Title:  "authenticator vs signature generation cost",
		Header: []string{"n", "authenticator (us)", "signature (us)", "MACs win"},
	}
	iters := 200 * scale
	payload := make([]byte, 96)
	kp := crypto.GenerateKeyPair([]byte("e11"))

	sigTime := func() time.Duration {
		start := time.Now()
		for i := 0; i < iters; i++ {
			kp.Sign(payload)
		}
		return time.Since(start) / time.Duration(iters)
	}()

	for _, n := range []int{4, 16, 64, 256, 1024} {
		ks := crypto.NewKeyStore(0)
		for p := 1; p < n; p++ {
			ks.InstallInitial(uint32(p))
		}
		start := time.Now()
		for i := 0; i < iters; i++ {
			ks.MakeAuthenticator(n, payload)
		}
		authTime := time.Since(start) / time.Duration(iters)
		t.Add(fmt.Sprintf("%d", n), us(authTime), us(sigTime),
			fmt.Sprintf("%v", authTime < sigTime))
	}
	t.Note("paper claim: BFT outperforms BFT-PK up to ~280 replicas on 1999 hardware; the crossover is where (n-1) MACs cost one signature")
	return []*Table{t}
}
