package experiments

import (
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/pbft"
	"repro/internal/simnet"
	"repro/internal/workload"
)

// benchConfig is the shared cluster configuration for micro benchmarks.
func benchConfig(mode pbft.Mode) pbft.Config {
	return pbft.Config{
		Mode:               mode,
		Opt:                pbft.DefaultOptions(),
		CheckpointInterval: 64,
		LogWindow:          128,
		ViewChangeTimeout:  2 * time.Second, // avoid spurious view changes under load
		StatusInterval:     100 * time.Millisecond,
		StateSize:          kvservice.MinStateSize + 128*1024,
		PageSize:           4096,
		Fanout:             16,
		Seed:               1,
	}
}

func newKVCluster(n int, cfg pbft.Config) *pbft.Cluster {
	c := pbft.NewLocalCluster(n, cfg, kvservice.Factory, nil)
	c.Start()
	return c
}

// microOp describes one of the paper's micro-benchmark operations (§8.1):
// "operation a/b has a KB argument and b KB result".
type microOp struct {
	name string
	op   []byte
	ro   bool // eligible for the read-only optimization
}

func microOps() []microOp {
	return []microOp{
		{"0/0", kvservice.Noop(), false},
		{"4/0", kvservice.WriteBlob(make([]byte, 4096)), false},
		{"0/4", kvservice.ReadBlob(4096), true},
	}
}

// E1Latency regenerates the latency micro-benchmarks: each operation's
// latency under BFT (read-write and, where legal, read-only), BFT-PK, and
// the unreplicated NO-REP baseline.
func E1Latency(scale int) []*Table {
	iters := 20 * scale
	t := &Table{
		ID:    "E1",
		Title: "operation latency (ms), f=1 (n=4)",
		Header: []string{"op", "mode", "mean", "p50", "p95",
			"vs NO-REP"},
	}

	type cell struct {
		op, mode string
		st       *workload.Stats
	}
	var cells []cell
	noRep := map[string]time.Duration{}

	// NO-REP baseline.
	{
		net := simnet.New(simnet.WithSeed(2))
		srv := baseline.NewServer(net, kvservice.MinStateSize+128*1024, 4096, kvservice.Factory)
		srv.Start()
		cl := baseline.NewClient(message.ClientIDBase, net)
		for _, op := range microOps() {
			st := workload.MeasureLatency(cl, iters, func(int) ([]byte, bool) { return op.op, false })
			cells = append(cells, cell{op.name, "NO-REP", st})
			noRep[op.name] = st.Mean()
		}
		cl.Close()
		srv.Stop()
		net.Close()
	}

	// BFT (MAC) read-write and read-only.
	{
		c := newKVCluster(4, benchConfig(pbft.ModeMAC))
		cl := c.NewClient()
		for _, op := range microOps() {
			st := workload.MeasureLatency(cl, iters, func(int) ([]byte, bool) { return op.op, false })
			cells = append(cells, cell{op.name, "BFT rw", st})
			if op.ro {
				st := workload.MeasureLatency(cl, iters, func(int) ([]byte, bool) { return op.op, true })
				cells = append(cells, cell{op.name, "BFT ro", st})
			}
		}
		c.Stop()
	}

	// BFT-PK.
	{
		c := newKVCluster(4, benchConfig(pbft.ModePK))
		cl := c.NewClient()
		for _, op := range microOps() {
			st := workload.MeasureLatency(cl, iters, func(int) ([]byte, bool) { return op.op, false })
			cells = append(cells, cell{op.name, "BFT-PK rw", st})
		}
		c.Stop()
	}

	for _, cl := range cells {
		t.Add(cl.op, cl.mode, ms(cl.st.Mean()), ms(cl.st.Median()), ms(cl.st.Percentile(95)),
			ratio(cl.st.Mean(), noRep[cl.op]))
	}
	t.Note("paper shape: BFT within a small factor of NO-REP; BFT-PK an order of magnitude slower; read-only cuts BFT latency roughly in half")
	return []*Table{t}
}

// E2Throughput regenerates the throughput-vs-clients curves.
func E2Throughput(scale int) []*Table {
	opsEach := 10 * scale
	clientCounts := []int{1, 5, 10, 20}
	var tables []*Table
	for _, op := range microOps() {
		t := &Table{
			ID:     "E2",
			Title:  fmt.Sprintf("throughput, operation %s (ops/s)", op.name),
			Header: []string{"clients", "BFT", "BFT ro", "NO-REP"},
		}
		for _, nc := range clientCounts {
			row := []string{fmt.Sprintf("%d", nc)}

			c := newKVCluster(4, benchConfig(pbft.ModeMAC))
			st := workload.RunClosed(func() workload.Invoker { return c.NewClient() },
				nc, opsEach, func(int) ([]byte, bool) { return op.op, false })
			row = append(row, fmt.Sprintf("%.0f", st.Throughput()))
			if op.ro {
				st := workload.RunClosed(func() workload.Invoker { return c.NewClient() },
					nc, opsEach, func(int) ([]byte, bool) { return op.op, true })
				row = append(row, fmt.Sprintf("%.0f", st.Throughput()))
			} else {
				row = append(row, "-")
			}
			c.Stop()

			net := simnet.New(simnet.WithSeed(3))
			srv := baseline.NewServer(net, kvservice.MinStateSize+128*1024, 4096, kvservice.Factory)
			srv.Start()
			next := message.ClientIDBase
			st = workload.RunClosed(func() workload.Invoker {
				cl := baseline.NewClient(next, net)
				next++
				return cl
			}, nc, opsEach, func(int) ([]byte, bool) { return op.op, false })
			row = append(row, fmt.Sprintf("%.0f", st.Throughput()))
			srv.Stop()
			net.Close()

			t.Add(row...)
		}
		t.Note("paper shape: throughput grows with clients until the primary saturates; batching keeps BFT within a small factor of NO-REP")
		tables = append(tables, t)
	}
	return tables
}

// E3Ablation measures each Chapter 5 optimization's contribution by
// disabling it.
func E3Ablation(scale int) []*Table {
	iters := 15 * scale
	loadClients := 10
	type variant struct {
		name string
		mut  func(*pbft.Config)
	}
	variants := []variant{
		{"full BFT", func(c *pbft.Config) {}},
		{"no tentative exec", func(c *pbft.Config) { c.Opt.TentativeExec = false }},
		{"no digest replies", func(c *pbft.Config) { c.Opt.DigestReplies = false }},
		{"no batching", func(c *pbft.Config) { c.Opt.Batching = false }},
		{"no separate req", func(c *pbft.Config) { c.Opt.SeparateRequests = false }},
		{"no read-only opt", func(c *pbft.Config) { c.Opt.ReadOnly = false }},
		{"inline execution", func(c *pbft.Config) { c.Opt.ExecPipeline = false }},
		{"signatures (BFT-PK)", func(c *pbft.Config) { c.Mode = pbft.ModePK }},
	}
	lat := &Table{
		ID:     "E3",
		Title:  "ablation: latency (ms) per configuration",
		Header: []string{"configuration", "0/0 rw", "4/0 rw", "0/4 ro"},
	}
	tput := &Table{
		ID:     "E3",
		Title:  fmt.Sprintf("ablation: 0/0 throughput with %d clients (ops/s)", loadClients),
		Header: []string{"configuration", "ops/s"},
	}
	for _, v := range variants {
		cfg := benchConfig(pbft.ModeMAC)
		// Pin the executor stage on before each mutation (the default
		// adapts to core count): every row then differs from "full BFT" by
		// exactly the named optimization, and the "inline execution" row is
		// a real ablation on any host.
		cfg.Opt.ExecPipeline = true
		v.mut(&cfg)
		c := newKVCluster(4, cfg)
		cl := c.NewClient()

		row := []string{v.name}
		for _, op := range microOps() {
			ro := op.ro
			st := workload.MeasureLatency(cl, iters, func(int) ([]byte, bool) { return op.op, ro })
			row = append(row, ms(st.Mean()))
		}
		lat.Add(row[0], row[2], row[3], row[1]) // order: 0/0, 4/0, 0/4

		st := workload.RunClosed(func() workload.Invoker { return c.NewClient() },
			loadClients, 10*scale, func(int) ([]byte, bool) { return kvservice.Noop(), false })
		tput.Add(v.name, fmt.Sprintf("%.0f", st.Throughput()))
		c.Stop()
	}
	lat.Note("rows use the optimization set named; read-only column degenerates to read-write when the optimization is off")
	return []*Table{lat, tput}
}

// E4Replicas measures latency and throughput as the group grows.
func E4Replicas(scale int) []*Table {
	iters := 15 * scale
	t := &Table{
		ID:     "E4",
		Title:  "scaling the replica group",
		Header: []string{"n", "f", "0/0 rw latency (ms)", "0/0 tput 10 clients (ops/s)"},
	}
	for _, n := range []int{4, 7, 10, 13} {
		cfg := benchConfig(pbft.ModeMAC)
		c := newKVCluster(n, cfg)
		cl := c.NewClient()
		st := workload.MeasureLatency(cl, iters, func(int) ([]byte, bool) { return kvservice.Noop(), false })
		tp := workload.RunClosed(func() workload.Invoker { return c.NewClient() },
			10, 10*scale, func(int) ([]byte, bool) { return kvservice.Noop(), false })
		t.Add(fmt.Sprintf("%d", n), fmt.Sprintf("%d", (n-1)/3),
			ms(st.Mean()), fmt.Sprintf("%.0f", tp.Throughput()))
		c.Stop()
	}
	t.Note("paper shape: latency grows modestly with n (authenticators are linear in n); throughput degrades gently")
	return []*Table{t}
}
