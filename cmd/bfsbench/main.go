// Command bfsbench runs the Andrew-style file-system benchmark (§8.6)
// against BFS on a BFT cluster, BFS-strict (read-only optimization off), or
// the unreplicated NO-REP baseline.
//
//	bfsbench -target bfs -scale 2
//	bfsbench -target norep
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/bft"
	"repro/bft/fs"
	"repro/internal/baseline"
	"repro/internal/message"
	"repro/internal/simnet"
	"repro/internal/workload"
)

func main() {
	var (
		target = flag.String("target", "bfs", "bfs | strict | norep")
		scale  = flag.Int("scale", 1, "benchmark scale (>=1)")
		nRep   = flag.Int("n", 4, "replicas for bfs/strict")
	)
	flag.Parse()
	opts := clusterOptions(*nRep, *scale)
	if err := checkFlags(*target, *scale, opts); err != nil {
		fmt.Fprintf(os.Stderr, "bfsbench: %v\n", err)
		os.Exit(2)
	}

	var fc *fs.Client
	var cleanup func()

	switch *target {
	case "bfs", "strict":
		cluster := bft.NewCluster(opts, fs.Factory)
		cluster.Start()
		fc = fs.NewClient(cluster.NewClient())
		fc.Strict = *target == "strict"
		cleanup = cluster.Stop
	case "norep":
		net := simnet.New(simnet.WithSeed(1))
		srv := baseline.NewServer(net, opts.StateSize, 4096, fs.Factory)
		srv.Start()
		cl := baseline.NewClient(message.ClientIDBase, net)
		fc = fs.NewClient(cl)
		cleanup = func() { cl.Close(); srv.Stop(); net.Close() }
	}
	defer cleanup()

	fmt.Printf("Andrew-style benchmark, target=%s scale=%d\n", *target, *scale)
	at, err := workload.RunAndrew(fc, *scale)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark failed: %v\n", err)
		os.Exit(1)
	}
	for i, name := range workload.PhaseNames {
		fmt.Printf("  phase %-8s %10.3f ms\n", name, float64(at.Phase[i].Microseconds())/1000)
	}
	fmt.Printf("  total         %10.3f ms\n", float64(at.Total.Microseconds())/1000)
}

// clusterOptions sizes the replicated file system for n replicas and the
// given benchmark scale; the NO-REP server uses the same region size.
func clusterOptions(n, scale int) bft.Options {
	return bft.Options{
		Replicas:           n,
		CheckpointInterval: 64,
		LogWindow:          128,
		ViewChangeTimeout:  2 * time.Second,
		StateSize:          fs.MinRegionSize(8192 * scale),
		MaxRetries:         20,
		Seed:               1,
	}
}

// checkFlags rejects command-line input the benchmark cannot run, so a bad
// flag is a one-line usage error rather than a panic or a failed phase.
func checkFlags(target string, scale int, opts bft.Options) error {
	switch target {
	case "bfs", "strict", "norep":
	default:
		return fmt.Errorf("unknown target %q (want bfs, strict or norep)", target)
	}
	if scale < 1 {
		return fmt.Errorf("-scale %d: must be at least 1", scale)
	}
	return opts.Validate()
}
