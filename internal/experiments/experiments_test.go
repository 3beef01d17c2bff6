package experiments

import (
	"strings"
	"testing"
	"time"
)

func TestTableFormatting(t *testing.T) {
	tb := &Table{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	tb.Add("1", "2")
	tb.Note("hello %d", 7)
	out := tb.String()
	for _, want := range []string{"== X: demo ==", "a", "bb", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestHelpers(t *testing.T) {
	if ms(1500*time.Microsecond) != "1.500" {
		t.Fatalf("ms: %s", ms(1500*time.Microsecond))
	}
	if us(1500*time.Nanosecond) != "1.5" {
		t.Fatalf("us: %s", us(1500*time.Nanosecond))
	}
	if ratio(2*time.Second, time.Second) != "x2.00" {
		t.Fatal("ratio")
	}
	if ratio(time.Second, 0) != "-" {
		t.Fatal("ratio zero")
	}
}

func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != 11 {
		t.Fatalf("%d experiments, want 11", len(all))
	}
	seen := map[string]bool{}
	for _, s := range all {
		if s.Run == nil || s.ID == "" || s.Paper == "" {
			t.Fatalf("incomplete spec %+v", s)
		}
		if seen[s.ID] {
			t.Fatalf("duplicate id %s", s.ID)
		}
		seen[s.ID] = true
	}
	if _, ok := ByID("e5"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("phantom experiment")
	}
}

// Smoke-run the cheap experiments at minimum scale so the harness itself is
// covered by `go test`. The heavyweight cluster experiments run under
// -bench (see bench_test.go) and in cmd/bftbench.
func TestE5CheckpointSmoke(t *testing.T) {
	tables := E5Checkpoint(1)
	if len(tables) != 2 || len(tables[0].Rows) != 9 {
		t.Fatalf("unexpected table shape: %+v", tables)
	}
	// The live-replica table: one row with checkpoint work recorded
	// through Replica.Metrics().
	live := tables[1]
	if len(live.Rows) != 1 {
		t.Fatalf("live table rows: %+v", live.Rows)
	}
	if row := live.Rows[0]; row[0] == "0" || row[2] == "0" {
		t.Fatalf("live replica row recorded no checkpoint work: %v", row)
	}
}

func TestE11CrossoverSmoke(t *testing.T) {
	tables := E11AuthCrossover(1)
	rows := tables[0].Rows
	if len(rows) != 5 {
		t.Fatalf("%d rows", len(rows))
	}
	// At n=4 MACs must win by a mile (the protocol's core premise).
	if rows[0][3] != "true" {
		t.Fatalf("MACs lost at n=4: %v", rows[0])
	}
}

func TestE1LatencySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster experiment")
	}
	tables := E1Latency(1)
	if len(tables) != 1 {
		t.Fatal("table count")
	}
	if len(tables[0].Rows) < 7 {
		t.Fatalf("rows: %d", len(tables[0].Rows))
	}
	for _, row := range tables[0].Rows {
		if row[2] == "0.000" {
			t.Fatalf("zero latency in row %v", row)
		}
	}
}
