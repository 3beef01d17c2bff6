package workload

import (
	"context"
	"testing"

	"repro/internal/bfs"
	"repro/internal/message"
	"repro/internal/statemachine"
)

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
