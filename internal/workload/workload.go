// Package workload is the scaled Andrew-benchmark workalike for the BFS
// evaluation of §8.6 ("we scaled up the benchmark"). cmd/bfsbench runs it
// against BFS, BFS-strict and the unreplicated NO-REP baseline.
package workload

import (
	"fmt"
	"time"

	"repro/internal/bfs"
)

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
