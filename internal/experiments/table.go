// Package experiments regenerates every table and figure of the thesis's
// evaluation (Chapter 8) on the simulated substrate. Each experiment is a
// function returning a Table; cmd/bftbench prints them and bench_test.go
// wraps them in testing.B benchmarks. Absolute numbers differ from the 1999
// testbed — the reproduction target is the shape: who wins, by what rough
// factor, and where crossovers sit. The maintained performance record is
// the repository benchmark (bench/README.md) and CHANGES.md.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Table is a formatted experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Add appends a row.
func (t *Table) Add(cols ...string) { t.Rows = append(t.Rows, cols) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders an aligned text table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		for i, c := range cols {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// ms renders a duration in milliseconds with three decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

// us renders a duration in microseconds.
func us(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1000)
}

// ratio renders a/b with two decimals ("x1.42").
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("x%.2f", float64(a)/float64(b))
}

// Spec describes a runnable experiment for the CLI.
type Spec struct {
	ID    string
	What  string
	Paper string // the thesis table/figure it regenerates
	Run   func(scale int) []*Table
}

// All lists every experiment in id order.
func All() []Spec {
	return []Spec{
		{"E1", "latency of 0/0, 0/4, 4/0 operations; BFT vs BFT-PK vs NO-REP", "Tables 8.2-8.5, Figs 8-2..8-4", E1Latency},
		{"E2", "throughput vs number of clients", "Figs 8-7..8-9", E2Throughput},
		{"E3", "impact of each optimization (ablation)", "§8.3.3", E3Ablation},
		{"E4", "scaling the replica group (f=1..4)", "§8.3.4, Figs 8-12..8-15", E4Replicas},
		{"E5", "checkpoint creation cost", "§8.4.1, Table 8.12", E5Checkpoint},
		{"E6", "state transfer", "§8.4.2, Fig 8-16", E6StateTransfer},
		{"E7", "view change latency", "§8.5, Table 8.13", E7ViewChange},
		{"E8", "BFS Andrew-style benchmark vs NO-REP", "§8.6.2, Tables 8.14-8.16", E8BFS},
		{"E9", "proactive recovery", "§8.6.3, Figs 8-18/8-19", E9Recovery},
		{"E10", "analytic model vs measurement", "Ch. 7 vs Ch. 8", E10Model},
		{"E11", "authenticators vs signatures as n grows", "§3.2.1, §8.3.3", E11AuthCrossover},
	}
}

// ByID finds an experiment.
func ByID(id string) (Spec, bool) {
	for _, s := range All() {
		if strings.EqualFold(s.ID, id) {
			return s, true
		}
	}
	return Spec{}, false
}
