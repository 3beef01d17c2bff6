package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// report is the schema-stable file one full set of runs leaves behind and
// -compare reads: an environment block and, per workload, both metric
// families with the window spread beside each end-to-end median.
type report struct {
	Env       environment           `json:"env"`
	Workloads map[string]*runResult `json:"workloads"`
}

// runAll runs every workload in a fresh child process per (workload, mode),
// prints each child's metric lines, and merges the children's result files
// into bench/out/report.json. A workload whose checks fail marks the whole
// set failed after the others have run.
func runAll(seed int64, seconds float64, trace int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	modes := []int{0, 1}
	if trace == 0 || trace == 1 {
		modes = []int{trace}
	}
	rep := report{Workloads: make(map[string]*runResult)}
	var failed []string
	for _, w := range workloads {
		for _, mode := range modes {
			cmd := exec.Command(exe,
				"-workload", w.Name,
				"-seed", strconv.FormatInt(seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(mode))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s (trace %d): %v", w.Name, mode, err))
				continue
			}
			var res runResult
			if err := readJSON(filepath.Join(outDir(), fmt.Sprintf("run-%s-t%d.json", w.Name, mode)), &res); err != nil {
				return err
			}
			merged := rep.Workloads[w.Name]
			if merged == nil {
				rep.Workloads[w.Name] = &res
				rep.Env = res.Env
				continue
			}
			merged.Correct = merged.Correct && res.Correct
			merged.Attempted += res.Attempted
			merged.Failed += res.Failed
			merged.PerLayer = res.PerLayer
		}
	}
	path := filepath.Join(outDir(), "report.json")
	if err := writeJSON(path, rep); err != nil {
		return err
	}
	fmt.Println("report written to", path)
	if len(failed) > 0 {
		return fmt.Errorf("failed runs: %v", failed)
	}
	return nil
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
