// Package workload provides the load generators and measurement helpers the
// benchmark harness uses: closed-loop client drivers for the micro
// benchmarks of §8.1 (a/0 and 0/b operations), latency statistics, and a
// scaled Andrew-benchmark workalike for the BFS evaluation of §8.6.
package workload

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/bfs"
)

// Invoker is the minimal execution interface (BFT client, baseline client).
type Invoker interface {
	Invoke(op []byte, readOnly bool) ([]byte, error)
}

// OpGen produces the i-th operation for one client. Returning a nil op
// ends that client's stream early (used by duration-bounded runs).
type OpGen func(i int) (op []byte, readOnly bool)

// Stats summarizes a run.
type Stats struct {
	N         int
	Errors    int
	Elapsed   time.Duration
	latencies []time.Duration
	sorted    bool
}

// Add records one sample.
func (s *Stats) Add(d time.Duration) {
	s.latencies = append(s.latencies, d)
	s.N++
	s.sorted = false
}

// Merge folds another Stats in.
func (s *Stats) Merge(o *Stats) {
	s.latencies = append(s.latencies, o.latencies...)
	s.N += o.N
	s.Errors += o.Errors
	s.sorted = false
}

func (s *Stats) sort() {
	if !s.sorted {
		sort.Slice(s.latencies, func(i, j int) bool { return s.latencies[i] < s.latencies[j] })
		s.sorted = true
	}
}

// Mean returns the average latency.
func (s *Stats) Mean() time.Duration {
	if len(s.latencies) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range s.latencies {
		sum += d
	}
	return sum / time.Duration(len(s.latencies))
}

// Percentile returns the p-th percentile latency (p in [0,100]).
func (s *Stats) Percentile(p float64) time.Duration {
	if len(s.latencies) == 0 {
		return 0
	}
	s.sort()
	idx := int(p / 100 * float64(len(s.latencies)-1))
	return s.latencies[idx]
}

// Median returns the 50th percentile.
func (s *Stats) Median() time.Duration { return s.Percentile(50) }

// Throughput returns completed operations per second.
func (s *Stats) Throughput() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.N) / s.Elapsed.Seconds()
}

// String formats the headline numbers.
func (s *Stats) String() string {
	return fmt.Sprintf("n=%d err=%d mean=%v p50=%v p95=%v tput=%.0f/s",
		s.N, s.Errors, s.Mean(), s.Median(), s.Percentile(95), s.Throughput())
}

// RunClosed drives nClients closed-loop clients, each executing opsEach
// operations produced by gen, and returns merged statistics.
func RunClosed(mkClient func() Invoker, nClients, opsEach int, gen OpGen) *Stats {
	var wg sync.WaitGroup
	parts := make([]*Stats, nClients)
	start := time.Now()
	for c := 0; c < nClients; c++ {
		inv := mkClient()
		st := &Stats{}
		parts[c] = st
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsEach; i++ {
				op, ro := gen(i)
				if op == nil {
					return
				}
				t0 := time.Now()
				if _, err := inv.Invoke(op, ro); err != nil {
					st.Errors++
					continue
				}
				st.Add(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	total := &Stats{Elapsed: time.Since(start)}
	for _, p := range parts {
		total.Merge(p)
	}
	return total
}

// MeasureLatency runs n sequential operations on one client and returns
// per-op statistics (the paper's latency micro-benchmark shape, §8.3.1).
func MeasureLatency(inv Invoker, n int, gen OpGen) *Stats {
	st := &Stats{}
	start := time.Now()
	for i := 0; i < n; i++ {
		op, ro := gen(i)
		t0 := time.Now()
		if _, err := inv.Invoke(op, ro); err != nil {
			st.Errors++
			continue
		}
		st.Add(time.Since(t0))
	}
	st.Elapsed = time.Since(start)
	return st
}

// ---------------------------------------------------------------------------
// Andrew-benchmark workalike (§8.6: "we scaled up the benchmark")
// ---------------------------------------------------------------------------

// AndrewTimes holds per-phase wall-clock times.
type AndrewTimes struct {
	Phase [5]time.Duration
	Total time.Duration
}

// PhaseNames labels the five phases like the paper's Table 8.14.
var PhaseNames = [5]string{
	"1 mkdir", "2 copy", "3 stat", "4 read", "5 make",
}

// RunAndrew executes a scaled Andrew-benchmark-like workload against a BFS
// client: (1) create the directory tree, (2) copy source files into it,
// (3) stat every file, (4) read every file, (5) a compile-like pass that
// reads sources and writes outputs. scale multiplies the work (scale 1 ≈
// one Andrew iteration's file counts, shrunk to simulator size).
func RunAndrew(fc *bfs.Client, scale int) (AndrewTimes, error) {
	return RunAndrewAt(fc, scale, "")
}

// RunAndrewAt runs the benchmark under a namespace prefix so repeated
// passes over one file system do not collide.
func RunAndrewAt(fc *bfs.Client, scale int, prefix string) (AndrewTimes, error) {
	var at AndrewTimes
	if scale < 1 {
		scale = 1
	}
	const dirsPerUnit = 5
	const filesPerDir = 4
	fileSize := 2048

	type file struct {
		dir  uint32
		name string
		ino  uint32
	}
	var files []file
	var dirs []uint32

	start := time.Now()

	base := uint32(bfs.RootIno)
	if prefix != "" {
		a, err := fc.MkdirAll("/" + prefix + "/bench")
		if err != nil {
			return at, fmt.Errorf("prefix: %w", err)
		}
		base = a
	}

	// Phase 1: mkdir.
	t0 := time.Now()
	for u := 0; u < scale; u++ {
		top, err := fc.Mkdir(base, fmt.Sprintf("unit%d", u))
		if err != nil {
			return at, fmt.Errorf("phase1: %w", err)
		}
		for d := 0; d < dirsPerUnit; d++ {
			sub, err := fc.Mkdir(top.Ino, fmt.Sprintf("dir%d", d))
			if err != nil {
				return at, fmt.Errorf("phase1: %w", err)
			}
			dirs = append(dirs, sub.Ino)
		}
	}
	at.Phase[0] = time.Since(t0)

	// Phase 2: copy (write source files).
	t0 = time.Now()
	content := make([]byte, fileSize)
	for i := range content {
		content[i] = byte(i)
	}
	for di, dir := range dirs {
		for f := 0; f < filesPerDir; f++ {
			name := fmt.Sprintf("src%d.c", f)
			ino, err := fc.WriteFile(dir, name, content)
			if err != nil {
				return at, fmt.Errorf("phase2: %w", err)
			}
			files = append(files, file{dir: dir, name: name, ino: ino})
		}
		_ = di
	}
	at.Phase[1] = time.Since(t0)

	// Phase 3: stat every file (directory walk + getattr).
	t0 = time.Now()
	for _, dir := range dirs {
		ents, err := fc.Readdir(dir)
		if err != nil {
			return at, fmt.Errorf("phase3: %w", err)
		}
		for _, e := range ents {
			if _, err := fc.GetAttr(e.Ino); err != nil {
				return at, fmt.Errorf("phase3: %w", err)
			}
		}
	}
	at.Phase[2] = time.Since(t0)

	// Phase 4: read every file.
	t0 = time.Now()
	for _, f := range files {
		if _, err := fc.ReadFile(f.ino); err != nil {
			return at, fmt.Errorf("phase4: %w", err)
		}
	}
	at.Phase[3] = time.Since(t0)

	// Phase 5: make — read sources, write an output per directory.
	t0 = time.Now()
	for _, dir := range dirs {
		var objSize int
		ents, err := fc.Readdir(dir)
		if err != nil {
			return at, fmt.Errorf("phase5: %w", err)
		}
		for _, e := range ents {
			data, err := fc.ReadFile(e.Ino)
			if err != nil {
				return at, fmt.Errorf("phase5: %w", err)
			}
			objSize += len(data) / 2
		}
		obj := make([]byte, objSize)
		if _, err := fc.WriteFile(dir, "out.o", obj); err != nil {
			return at, fmt.Errorf("phase5: %w", err)
		}
	}
	at.Phase[4] = time.Since(t0)

	at.Total = time.Since(start)
	return at, nil
}
