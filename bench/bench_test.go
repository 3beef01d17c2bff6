package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"testing"
	"time"
)

// These tests ride `go test ./...`. They assert that the benchmark runs,
// that its outputs are right, and that the names it emits are the names
// BENCHMARK.json promises — never a magnitude or a deadline, so a loaded
// host cannot make them flake.

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var mf manifest
	if err := json.Unmarshal(b, &mf); err != nil {
		t.Fatal(err)
	}
	return mf
}

// TestRegistryMatchesManifest keeps BENCHMARK.json and the code's registry
// in step: same workloads, same metrics, same units, directions and bounds.
func TestRegistryMatchesManifest(t *testing.T) {
	mf := readManifest(t)
	if len(mf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the registry %d", len(mf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if mf.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the registry %q", i, mf.Workloads[i].Name, w.Name)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is outside the naming rule", w.Name)
		}
	}
	same := func(kind string, listed []manifestMetric, defs []metricDef) {
		if len(listed) != len(defs) {
			t.Fatalf("BENCHMARK.json lists %d %s metrics, the registry %d", len(listed), kind, len(defs))
		}
		seen := make(map[string]bool)
		for i, d := range defs {
			l := listed[i]
			if l.Name != d.Name || l.Unit != d.Unit || l.Better != d.Better || l.Bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the registry %+v", kind, i, l, d)
			}
			if !nameRE.MatchString(d.Name) || seen[d.Name] {
				t.Errorf("metric name %q is outside the naming rule or repeated", d.Name)
			}
			seen[d.Name] = true
			if d.Better != "higher" && d.Better != "lower" {
				t.Errorf("metric %q: direction %q", d.Name, d.Better)
			}
		}
	}
	same("end_to_end", mf.EndToEnd, endToEnd)
	same("per_layer", mf.PerLayer, perLayer)
}

// TestWorkloadsEmitEveryMetric runs every workload briefly in both modes
// and checks that each listed metric comes out finite and with its unit,
// and that the run's own correctness checks hold.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs six clusters")
	}
	t.Setenv("BENCH_BUILD_DIR", t.TempDir())
	t.Setenv("BENCH_OUT_DIR", t.TempDir())
	for _, w := range workloads {
		r := runner{def: w, seed: 1, seconds: 1, probeBudget: 2 * time.Millisecond, setupRuns: 1}
		check := func(mode string, res runResult, err error, got map[string]metricValue, defs []metricDef) {
			if err != nil {
				t.Errorf("%s %s: %v", w.Name, mode, err)
				return
			}
			for _, v := range res.Violations {
				t.Errorf("%s %s: check failed: %s", w.Name, mode, v)
			}
			// Timeouts and a group still converging depend on the host's
			// speed (think -race on two cores): reported, not asserted.
			for _, v := range res.Stalled {
				t.Logf("%s %s: %s", w.Name, mode, v)
			}
			if res.Failed != 0 {
				t.Logf("%s %s: %d of %d operations timed out", w.Name, mode, res.Failed, res.Attempted)
			}
			if res.Attempted < 1 {
				t.Errorf("%s %s: nothing attempted", w.Name, mode)
			}
			if len(got) != len(defs) {
				t.Errorf("%s %s: %d metrics emitted, %d listed", w.Name, mode, len(got), len(defs))
			}
			for _, d := range defs {
				m, ok := got[d.Name]
				if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s %s: metric %s emitted as %+v (listed unit %q)", w.Name, mode, d.Name, m, d.Unit)
				}
			}
		}
		res, err := r.endToEnd()
		check("end-to-end", res, err, res.EndToEnd, endToEnd)
		res, err = r.perLayer()
		check("per-layer", res, err, res.PerLayer, perLayer)
	}
}

// TestIssuedBlobPage replays stamped writes into a blob area the size the
// service has (not a whole number of writes, so they wrap at shifting
// offsets) and checks that the page check accepts every state the clients
// can leave behind and rejects a flipped byte and an unissued stamp.
func TestIssuedBlobPage(t *testing.T) {
	const area = 33*blobSize + 1984
	p := newPhase(&bed{def: workloadDef{Clients: 4}}, phaseConfig{}, 7, time.Now())
	rng := rand.New(rand.NewSource(7))
	blob := make([]byte, area)
	cursor := 0
	write := func(pl []byte) {
		for i := range pl {
			blob[(cursor+i)%area] = pl[i]
		}
		cursor = (cursor + len(pl)) % area
	}
	binary.LittleEndian.PutUint64(p.setupBlob, 0)
	write(p.setupBlob)
	for n := 0; n < 400; n++ {
		k := rng.Intn(len(p.payloads))
		seq := p.issued[k].Add(1)
		binary.LittleEndian.PutUint64(p.payloads[k], uint64(k+1)<<40|seq)
		write(p.payloads[k])
		page := append([]byte(nil), blob[:blobSize]...)
		if !p.issuedBlobPage(page) {
			t.Fatalf("page rejected after %d writes (cursor %d)", n+1, cursor)
		}
		page[blobSize/2] ^= 0xff
		if p.issuedBlobPage(page) {
			t.Fatalf("flipped byte accepted after %d writes", n+1)
		}
	}
	// A stamp no client issued, on an otherwise intact write at offset 0.
	page := append([]byte(nil), p.payloads[0]...)
	binary.LittleEndian.PutUint64(page, uint64(1)<<40|(p.issued[0].Load()+1))
	if p.issuedBlobPage(page) {
		t.Fatal("unissued stamp accepted")
	}
}
