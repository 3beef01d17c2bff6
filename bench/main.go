// Command bench is the repository's benchmark: six named workloads against
// a 4-replica cluster built through the public repro/bft surface, reported
// as end-to-end metrics (untraced) and per-layer metrics (a traced run plus
// layer probes). BENCHMARK.json names it for the driver; README.md in this
// directory is the glossary.
//
//	bash bench/run.sh --workload sim-incr-c1 --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                       # every workload, both modes, one report
//	bash bench/run.sh -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// outDir is where reports, per-run results and span files go.
func outDir() string {
	if dir := os.Getenv("BENCH_OUT_DIR"); dir != "" {
		return dir
	}
	return "bench/out"
}

func main() {
	var (
		workload = flag.String("workload", "", "run one workload by name (default: all, each in a child process)")
		seed     = flag.Int64("seed", 1, "seeds payload bytes, the simulated network and the kill schedule")
		seconds  = flag.Float64("seconds", runSeconds, "measured interval per run")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced; default both (all-workload mode only)")
		compare  = flag.Bool("compare", false, "compare two reports: bench -compare old.json new.json")
		setup    = flag.String("setup-probe", "", "internal: set the named workload up, acknowledge one operation, exit")
		list     = flag.Bool("list", false, "list workloads and metrics")
		printMF  = flag.Bool("manifest", false, "print BENCHMARK.json as the registry defines it")
	)
	flag.Parse()
	var err error
	switch {
	case *list:
		printRegistry()
	case *printMF:
		err = printManifest()
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare old.json new.json")
			os.Exit(2)
		}
		err = compareReports(flag.Arg(0), flag.Arg(1))
	case *setup != "":
		err = setupProbe(*setup, *seed)
	case *workload != "":
		if *trace != 0 && *trace != 1 {
			fmt.Fprintln(os.Stderr, "bench: --workload needs --trace 0 or --trace 1")
			os.Exit(2)
		}
		err = runOne(*workload, *seed, *seconds, *trace)
	default:
		err = runAll(*seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func printRegistry() {
	for _, w := range workloads {
		fmt.Printf("workload %s: %s\n", w.Name, w.Why)
	}
	for _, m := range endToEnd {
		fmt.Printf("end_to_end %s [%s, %s is better, bound %.0f%%]: %s\n", m.Name, m.Unit, m.Better, m.Bound*100, m.Help)
	}
	for _, m := range perLayer {
		fmt.Printf("per_layer %s [%s, %s is better]: %s\n", m.Name, m.Unit, m.Better, m.Help)
	}
}

// runSeconds is how long the driver measures per run (BENCHMARK.json's
// run_seconds): five windows of 3 s.
const runSeconds = 15

// printManifest writes BENCHMARK.json from the registry, so the file the
// driver reads cannot drift from the names the program emits.
func printManifest() error {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type unbounded struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	mf := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []unbounded `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		mf.Workloads = append(mf.Workloads, workload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		mf.EndToEnd = append(mf.EndToEnd, bounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		mf.PerLayer = append(mf.PerLayer, unbounded{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(mf, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// runOne is the driver's entry: one workload, one mode, one process. It
// prints every metric as "workload name unit value", then the result
// object as the last line, and fails instead when a check does not hold.
func runOne(name string, seed int64, seconds float64, trace int) error {
	def, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q (try -list)", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	r := runner{def: def, seed: seed, seconds: seconds, probeBudget: 200 * time.Millisecond, setupRuns: 16, childSetup: true}
	var res runResult
	var err error
	if trace == 0 {
		res, err = r.endToEnd()
	} else {
		res, err = r.perLayer()
	}
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(outDir(), fmt.Sprintf("run-%s-t%d.json", name, trace)), res); err != nil {
		return err
	}
	if !res.Correct {
		for _, v := range append(res.Violations, res.Stalled...) {
			fmt.Fprintln(os.Stderr, "bench: check failed:", v)
		}
		return fmt.Errorf("workload %s failed its correctness checks", name)
	}
	metrics := res.EndToEnd
	if trace == 1 {
		metrics = res.PerLayer
	}
	printMetrics(name, metrics)
	return printResultLine(res, metrics)
}

func sortedNames(metrics map[string]metricValue) []string {
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func printMetrics(workload string, metrics map[string]metricValue) {
	for _, n := range sortedNames(metrics) {
		fmt.Printf("%s %s %s %v\n", workload, n, metrics[n].Unit, metrics[n].Value)
	}
}

// printResultLine prints the one JSON object the driver reads.
func printResultLine(res runResult, metrics map[string]metricValue) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, make(map[string]value, len(metrics))}
	for _, n := range sortedNames(metrics) {
		m := metrics[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is not finite", n)
		}
		line.Metrics[n] = value{m.Value, m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
