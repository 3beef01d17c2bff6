package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/bft/kv"
)

// runner runs one workload in this process.
type runner struct {
	def         workloadDef
	seed        int64
	seconds     float64
	probeBudget time.Duration // time each layer probe may take
	setupRuns   int           // set-ups timed for setup_s
	// childSetup times set-up in fresh child processes (what a user pays:
	// process start, key derivation, sockets). The smoke test cannot
	// re-execute itself and times the in-process path instead.
	childSetup bool
}

// endToEnd is the untraced run: set-up timing, one measured phase, checks.
func (r runner) endToEnd() (runResult, error) {
	tmp, err := tmpRoot()
	if err != nil {
		return runResult{}, err
	}
	// Half the set-ups are timed before the measured phase and half after
	// it: the host's speed shifts on a scale of seconds, and two instants
	// sample it better than one.
	setup, err := r.measureSetup(tmp, (r.setupRuns+1)/2)
	if err != nil {
		return runResult{}, err
	}
	cfg := phasePlan(r.seconds)
	p, err := r.phase(cfg, tmp, false)
	if err != nil {
		return runResult{}, err
	}
	after, err := r.measureSetup(tmp, r.setupRuns/2)
	if err != nil {
		return runResult{}, err
	}
	setup = append(setup, after...)
	res := runResult{Workload: r.def.Name, Env: readEnvironment(tmp, r.seed, cfg.window, cfg.windows)}
	res.tally(p)
	res.EndToEnd = endToEndMetrics(p, setup)
	return res, nil
}

// perLayer is the traced run: an untraced phase for the engine's counters
// (and the throughput the tracing overhead is measured against), a traced
// phase for the spans and the wire counts, then the layer probes on what
// the tap captured. Each phase gets half the run length.
func (r runner) perLayer() (runResult, error) {
	tmp, err := tmpRoot()
	if err != nil {
		return runResult{}, err
	}
	cfg := phasePlan(r.seconds / 2)
	res := runResult{Workload: r.def.Name, Env: readEnvironment(tmp, r.seed, cfg.window, cfg.windows)}
	vals := make(map[string]float64)

	plain := cfg
	if r.def.Durable {
		plain.walCycles = 3
	}
	pa, err := r.phase(plain, tmp, false)
	if err != nil {
		return runResult{}, err
	}
	res.tally(pa)
	counterMetrics(pa, vals)
	vals["bench.peak_rss_mib"] = peakRSSMiB() // before the tap's buffers exist

	pb, err := r.phase(cfg, tmp, true)
	if err != nil {
		return runResult{}, err
	}
	res.tally(pb)
	st := buildSpans(pb)
	tapMetrics(pb, st, vals)
	if err := writeJSON(filepath.Join(outDir(), "trace-"+r.def.Name+".json"), st.spans); err != nil {
		return runResult{}, err
	}
	if plainT, tracedT := median(pa.windows().tput), median(pb.windows().tput); plainT > 0 {
		vals["bench.trace_overhead_pct"] = 100 * (plainT - tracedT) / plainT
	}

	t := pb.b.tap
	in := probeInput{
		def:       r.def,
		seed:      r.seed,
		captured:  t.captured,
		fill:      int(math.Max(1, math.Round(vals["pbft.batch_fill_avg"]))),
		sendSize:  max(t.reqSize, t.replySize, 64),
		stateSize: pb.b.opts.StateSize,
		tmpDir:    tmp,
		budget:    r.probeBudget,
	}
	if err := runProbes(in, vals); err != nil {
		return runResult{}, err
	}
	res.PerLayer = perLayerValues(vals)
	return res, nil
}

// phase builds a bed, runs one phase on it, verifies it, and tears it
// down. The phase keeps what the metrics need after the bed is gone.
func (r runner) phase(cfg phaseConfig, tmp string, traced bool) (*phase, error) {
	base := time.Now()
	b, err := newBed(r.def, r.seed, tmp, traced, base)
	if err != nil {
		return nil, err
	}
	defer b.stop()
	p := newPhase(b, cfg, r.seed, base)
	if err := p.run(); err != nil {
		return nil, err
	}
	p.unsafe, p.stalled = p.verify()
	return p, nil
}

// measureSetup times n fresh set-ups up to the first acknowledged
// operation.
func (r runner) measureSetup(tmp string, n int) ([]float64, error) {
	var out []float64
	for i := 0; i < n; i++ {
		var d time.Duration
		var err error
		if r.childSetup {
			d, err = r.childSetupTime()
		} else {
			t0 := time.Now()
			err = setupOnce(r.def, r.seed, tmp, func() { d = time.Since(t0) })
		}
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		out = append(out, d.Seconds())
	}
	return out, nil
}

// setupOnce stands the workload's cluster up, calls ready once the first
// operation is acknowledged, and tears the cluster down.
func setupOnce(def workloadDef, seed int64, tmp string, ready func()) error {
	b, err := newBed(def, seed, tmp, false, time.Now())
	if err != nil {
		return err
	}
	defer b.stop()
	op := kv.Incr()
	if def.Op != opIncr {
		op = kv.WriteBlob(make([]byte, blobSize))
	}
	if _, err := b.invoke(b.clients[0], op, false); err != nil {
		return err
	}
	ready()
	return nil
}

// childSetupTime starts this program again as a set-up probe and times it
// from process creation to its "ready" line: what a fresh process pays
// before its first operation is acknowledged.
func (r runner) childSetupTime() (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-probe", r.def.Name, "-seed", strconv.FormatInt(r.seed, 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	d := time.Since(t0)
	if err := cmd.Wait(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	if readErr != nil || line != "ready\n" {
		return 0, fmt.Errorf("set-up probe printed %q", line)
	}
	return d, nil
}

// setupProbe is the child side of childSetupTime.
func setupProbe(name string, seed int64) error {
	def, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	tmp, err := tmpRoot()
	if err != nil {
		return err
	}
	return setupOnce(def, seed, tmp, func() { fmt.Println("ready") })
}
