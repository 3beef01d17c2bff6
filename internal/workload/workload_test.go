package workload

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/bfs"
	"repro/internal/message"
	"repro/internal/statemachine"
)

type fakeInvoker struct {
	delay time.Duration
	fail  bool
	calls int
}

func (f *fakeInvoker) Invoke(op []byte, ro bool) ([]byte, error) {
	f.calls++
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.fail {
		return nil, errors.New("boom")
	}
	return []byte("ok"), nil
}

func TestStatsBasics(t *testing.T) {
	s := &Stats{}
	for _, d := range []time.Duration{10, 20, 30, 40, 50} {
		s.Add(d * time.Millisecond)
	}
	s.Elapsed = 150 * time.Millisecond
	if s.Mean() != 30*time.Millisecond {
		t.Fatalf("mean %v", s.Mean())
	}
	if s.Median() != 30*time.Millisecond {
		t.Fatalf("median %v", s.Median())
	}
	if s.Percentile(100) != 50*time.Millisecond {
		t.Fatalf("p100 %v", s.Percentile(100))
	}
	if s.Percentile(0) != 10*time.Millisecond {
		t.Fatalf("p0 %v", s.Percentile(0))
	}
	if tp := s.Throughput(); tp < 33 || tp > 34 {
		t.Fatalf("throughput %f", tp)
	}
	if s.String() == "" {
		t.Fatal("empty string")
	}
}

func TestStatsEmpty(t *testing.T) {
	s := &Stats{}
	if s.Mean() != 0 || s.Median() != 0 || s.Throughput() != 0 {
		t.Fatal("zero-value stats must be zeros")
	}
}

func TestStatsMerge(t *testing.T) {
	a, b := &Stats{}, &Stats{}
	a.Add(10 * time.Millisecond)
	b.Add(30 * time.Millisecond)
	b.Errors = 2
	a.Merge(b)
	if a.N != 2 || a.Errors != 2 || a.Mean() != 20*time.Millisecond {
		t.Fatalf("merge: %+v", a)
	}
}

func TestRunClosedCountsOps(t *testing.T) {
	invokers := []*fakeInvoker{}
	st := RunClosed(func() Invoker {
		f := &fakeInvoker{}
		invokers = append(invokers, f)
		return f
	}, 3, 7, func(int) ([]byte, bool) { return []byte{1}, false })
	if st.N != 21 || st.Errors != 0 {
		t.Fatalf("stats %+v", st)
	}
	for _, f := range invokers {
		if f.calls != 7 {
			t.Fatalf("client made %d calls", f.calls)
		}
	}
}

func TestRunClosedRecordsErrors(t *testing.T) {
	st := RunClosed(func() Invoker { return &fakeInvoker{fail: true} },
		2, 3, func(int) ([]byte, bool) { return []byte{1}, false })
	if st.N != 0 || st.Errors != 6 {
		t.Fatalf("stats %+v", st)
	}
}

func TestMeasureLatency(t *testing.T) {
	f := &fakeInvoker{delay: time.Millisecond}
	st := MeasureLatency(f, 5, func(int) ([]byte, bool) { return []byte{1}, true })
	if st.N != 5 {
		t.Fatalf("n=%d", st.N)
	}
	if st.Mean() < time.Millisecond {
		t.Fatalf("mean %v below injected delay", st.Mean())
	}
}

// directInvoker drives the Andrew benchmark against an in-process BFS.
type directInvoker struct{ s *bfs.Service }

func (d *directInvoker) InvokeContext(_ context.Context, op []byte, ro bool) ([]byte, error) {
	return d.s.Execute(message.ClientIDBase, op, d.s.ProposeNonDet()), nil
}

func TestRunAndrewPhases(t *testing.T) {
	r := statemachine.NewRegion(bfs.MinRegionSize(4096), 4096)
	fc := bfs.NewClient(&directInvoker{s: bfs.NewService(r)})
	at, err := RunAndrew(fc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if at.Total <= 0 {
		t.Fatal("no time elapsed")
	}
	for i, p := range at.Phase {
		if p < 0 {
			t.Fatalf("phase %d negative", i)
		}
	}
	// Scale 1: 5 dirs of 4 files each must exist afterwards.
	a, err := fc.WalkPath("/unit0/dir0/src0.c")
	if err != nil {
		t.Fatal(err)
	}
	if a.Size != 2048 {
		t.Fatalf("file size %d", a.Size)
	}
	if _, err := fc.WalkPath("/unit0/dir4/out.o"); err != nil {
		t.Fatal("phase 5 output missing")
	}
}

func TestRunAndrewAtPrefixIsolated(t *testing.T) {
	r := statemachine.NewRegion(bfs.MinRegionSize(8192), 4096)
	fc := bfs.NewClient(&directInvoker{s: bfs.NewService(r)})
	if _, err := RunAndrewAt(fc, 1, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := RunAndrewAt(fc, 1, "b"); err != nil {
		t.Fatal("second pass under a different prefix must not collide:", err)
	}
	if _, err := fc.WalkPath("/a/bench/unit0/dir0/src0.c"); err != nil {
		t.Fatal(err)
	}
	if _, err := fc.WalkPath("/b/bench/unit0/dir0/src0.c"); err != nil {
		t.Fatal(err)
	}
}
