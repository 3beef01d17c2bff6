package repro

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation. The experiment drivers in internal/experiments print the
// regenerated tables (visible with -v); the per-operation micro benchmarks
// report conventional ns/op so `go test -bench . -benchmem` gives
// comparable numbers run to run. Throughput, batching and durability are
// measured by the repository benchmark instead (bench/README.md).
//
// Run everything:
//
//	go test -bench=. -benchmem -timeout 3h
//
// or a single table:
//
//	go test -bench=BenchmarkE1 -v

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/experiments"
	"repro/internal/kvservice"
	"repro/internal/pbft"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// runExperiment executes an experiment driver once per benchmark iteration
// and logs the regenerated tables on the first pass.
func runExperiment(b *testing.B, run func(scale int) []*experiments.Table) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		tables := run(1)
		if i == 0 {
			for _, t := range tables {
				b.Log("\n" + t.String())
			}
		}
	}
}

func BenchmarkE1Latency(b *testing.B)       { runExperiment(b, experiments.E1Latency) }
func BenchmarkE2Throughput(b *testing.B)    { runExperiment(b, experiments.E2Throughput) }
func BenchmarkE3Ablation(b *testing.B)      { runExperiment(b, experiments.E3Ablation) }
func BenchmarkE4Replicas(b *testing.B)      { runExperiment(b, experiments.E4Replicas) }
func BenchmarkE5Checkpoint(b *testing.B)    { runExperiment(b, experiments.E5Checkpoint) }
func BenchmarkE6StateTransfer(b *testing.B) { runExperiment(b, experiments.E6StateTransfer) }
func BenchmarkE7ViewChange(b *testing.B)    { runExperiment(b, experiments.E7ViewChange) }
func BenchmarkE8BFS(b *testing.B)           { runExperiment(b, experiments.E8BFS) }
func BenchmarkE9Recovery(b *testing.B)      { runExperiment(b, experiments.E9Recovery) }
func BenchmarkE10Model(b *testing.B)        { runExperiment(b, experiments.E10Model) }
func BenchmarkE11AuthCrossover(b *testing.B) {
	runExperiment(b, experiments.E11AuthCrossover)
}

// ---------------------------------------------------------------------------
// Conventional per-operation micro benchmarks (ns/op comparable across
// runs). These are the operations behind Figures 8-2..8-9.
// ---------------------------------------------------------------------------

func benchCluster(b *testing.B, mode pbft.Mode, n int) *pbft.Client {
	b.Helper()
	cfg := pbft.Config{
		Mode:               mode,
		Opt:                pbft.DefaultOptions(),
		CheckpointInterval: 256,
		LogWindow:          512,
		ViewChangeTimeout:  5 * time.Second,
		StatusInterval:     200 * time.Millisecond,
		StateSize:          kvservice.MinStateSize + 128*1024,
		Seed:               1,
	}
	c := pbft.NewLocalCluster(n, cfg, kvservice.Factory, nil)
	c.Start()
	b.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.RetryTimeout = time.Second
	return cl
}

func benchInvoke(b *testing.B, cl *pbft.Client, op []byte, ro bool) {
	b.Helper()
	if _, err := cl.Invoke(op, ro); err != nil { // warm up
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Invoke(op, ro); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOp00ReadWrite(b *testing.B) {
	cl := benchCluster(b, pbft.ModeMAC, 4)
	benchInvoke(b, cl, kvservice.Noop(), false)
}

func BenchmarkOp00ReadWritePK(b *testing.B) {
	cl := benchCluster(b, pbft.ModePK, 4)
	benchInvoke(b, cl, kvservice.Noop(), false)
}

func BenchmarkOp40ReadWrite(b *testing.B) {
	cl := benchCluster(b, pbft.ModeMAC, 4)
	b.SetBytes(4096)
	benchInvoke(b, cl, kvservice.WriteBlob(make([]byte, 4096)), false)
}

func BenchmarkOp04ReadOnly(b *testing.B) {
	cl := benchCluster(b, pbft.ModeMAC, 4)
	b.SetBytes(4096)
	benchInvoke(b, cl, kvservice.ReadBlob(4096), true)
}

func BenchmarkOp04ReadWrite(b *testing.B) {
	cl := benchCluster(b, pbft.ModeMAC, 4)
	b.SetBytes(4096)
	benchInvoke(b, cl, kvservice.ReadBlob(4096), false)
}

func BenchmarkOp00N7(b *testing.B) {
	cl := benchCluster(b, pbft.ModeMAC, 7)
	benchInvoke(b, cl, kvservice.Noop(), false)
}

func BenchmarkOp00N13(b *testing.B) {
	cl := benchCluster(b, pbft.ModeMAC, 13)
	benchInvoke(b, cl, kvservice.Noop(), false)
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
		cfg := pbft.Config{
			Mode:               pbft.ModeMAC,
			Opt:                pbft.DefaultOptions(),
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
		c := pbft.NewCluster(net, cfg, 4, kvservice.Factory, nil)
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

// BenchmarkBFSAndrew measures one Andrew-benchmark pass over replicated BFS.
func BenchmarkBFSAndrew(b *testing.B) {
	cfg := pbft.Config{
		Mode:               pbft.ModeMAC,
		Opt:                pbft.DefaultOptions(),
		CheckpointInterval: 256,
		LogWindow:          512,
		ViewChangeTimeout:  5 * time.Second,
		StateSize:          bfs.MinRegionSize(16384),
		Seed:               1,
	}
	c := pbft.NewLocalCluster(4, cfg, bfs.Factory, nil)
	c.Start()
	b.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.RetryTimeout = time.Second
	fc := bfs.NewClient(cl)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A fresh directory per iteration keeps the namespace disjoint.
		sub, err := fc.Mkdir(bfs.RootIno, fmt.Sprintf("iter%d", i))
		if err != nil {
			b.Fatal(err)
		}
		_ = sub
		if _, err := workload.RunAndrewAt(fc, 1, fmt.Sprintf("iter%d", i)); err != nil {
			b.Fatal(err)
		}
	}
}
