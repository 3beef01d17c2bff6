package main

import (
	"fmt"
	"math"
)

// manifest is the part of BENCHMARK.json -compare needs: the bound and
// direction of each end-to-end metric.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// compareReports prints one verdict per (end-to-end metric, workload):
// improved or regressed when the median moved by more than the metric's
// bound, within when it did not, unresolved when either run's window
// spread is wider than the bound. It fails on any regression and on any
// rise in the share of failed operations.
func compareReports(oldPath, newPath string) error {
	var mf manifest
	if err := readJSON("BENCHMARK.json", &mf); err != nil {
		return err
	}
	var before, after report
	if err := readJSON(oldPath, &before); err != nil {
		return err
	}
	if err := readJSON(newPath, &after); err != nil {
		return err
	}
	regressed := 0
	for _, w := range mf.Workloads {
		o, n := before.Workloads[w.Name], after.Workloads[w.Name]
		if o == nil || n == nil {
			fmt.Printf("%-26s %-20s missing from a report\n", w.Name, "-")
			regressed++
			continue
		}
		for _, m := range mf.EndToEnd {
			ov, nv := o.EndToEnd[m.Name], n.EndToEnd[m.Name]
			verdict := verdictFor(m, ov, nv)
			if verdict == "regressed" {
				regressed++
			}
			fmt.Printf("%-26s %-20s %12.4f -> %12.4f %-6s %+7.2f%%  %s\n",
				w.Name, m.Name, ov.Value, nv.Value, m.Unit, 100*(nv.Value-ov.Value)/ov.Value, verdict)
		}
		if failedShare(n) > failedShare(o) {
			fmt.Printf("%-26s %-20s %12.6f -> %12.6f        regressed\n", w.Name, "failed_ops_share", failedShare(o), failedShare(n))
			regressed++
		}
	}
	if regressed > 0 {
		return fmt.Errorf("%d regressed", regressed)
	}
	return nil
}

func failedShare(r *runResult) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

func verdictFor(m manifestMetric, before, after metricValue) string {
	if before.Value == 0 || after.Value == 0 {
		return "unresolved"
	}
	spread := math.Max(before.IQR/before.Value, after.IQR/after.Value)
	if spread > m.Bound {
		return "unresolved"
	}
	worse := (after.Value - before.Value) / before.Value
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > m.Bound:
		return "regressed"
	case worse < -m.Bound:
		return "improved"
	}
	return "within"
}
