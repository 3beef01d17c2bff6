package kvservice

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/message"
	"repro/internal/statemachine"
)

func newSvc(t testing.TB) *Service {
	t.Helper()
	r := statemachine.NewRegion(MinStateSize+16*1024, 1024)
	return New(r)
}

const cli = message.ClientIDBase

func TestCounter(t *testing.T) {
	s := newSvc(t)
	for i := 1; i <= 5; i++ {
		got := DecodeU64(s.Execute(cli, Incr(), nil))
		if got != uint64(i) {
			t.Fatalf("incr %d -> %d", i, got)
		}
	}
	if got := DecodeU64(s.Execute(cli, Get(), nil)); got != 5 {
		t.Fatalf("get -> %d", got)
	}
}

func TestRegisters(t *testing.T) {
	s := newSvc(t)
	s.Execute(cli, SetReg(3, 42), nil)
	s.Execute(cli, SetReg(7, 99), nil)
	if got := DecodeU64(s.Execute(cli, GetReg(3), nil)); got != 42 {
		t.Fatalf("reg3 = %d", got)
	}
	if got := DecodeU64(s.Execute(cli, GetReg(7), nil)); got != 99 {
		t.Fatalf("reg7 = %d", got)
	}
	if got := DecodeU64(s.Execute(cli, GetReg(0), nil)); got != 0 {
		t.Fatalf("reg0 = %d", got)
	}
	// Key space wraps at 256.
	s.Execute(cli, SetReg(256+3, 1), nil)
	if got := DecodeU64(s.Execute(cli, GetReg(3), nil)); got != 1 {
		t.Fatal("register wrap broken")
	}
}

func TestBlobRoundTrip(t *testing.T) {
	s := newSvc(t)
	data := bytes.Repeat([]byte{7}, 4096)
	s.Execute(cli, WriteBlob(data), nil)
	got := s.Execute(cli, ReadBlob(4096), nil)
	if !bytes.Equal(got, data) {
		t.Fatal("blob mismatch")
	}
}

func TestBlobWraparound(t *testing.T) {
	r := statemachine.NewRegion(MinStateSize+2048, 1024)
	s := New(r)
	blobArea := r.Size() - offBlob
	// Write more than the blob area in two chunks; must not panic and must
	// keep the cursor in range.
	s.Execute(cli, WriteBlob(bytes.Repeat([]byte{1}, blobArea-10)), nil)
	s.Execute(cli, WriteBlob(bytes.Repeat([]byte{2}, 100)), nil)
	if got := int(s.u64(offCursor)); got < 0 || got >= blobArea {
		t.Fatalf("cursor %d out of range", got)
	}
}

// TestRegionSizeGuard pins New's construction-time check: a region below
// MinStateSize is refused, and one of exactly MinStateSize holds every
// write the operations can make — a full order log, the last register and
// a blob write wider than the blob area. One-byte pages keep NewRegion from
// rounding the sizes up.
func TestRegionSizeGuard(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("New accepted a region below MinStateSize")
			}
		}()
		New(statemachine.NewRegion(MinStateSize-1, 1))
	}()

	s := New(statemachine.NewRegion(MinStateSize, 1))
	for i := 0; i <= logCap; i++ {
		s.Execute(cli, AppendLog(), nil)
	}
	s.Execute(cli, SetReg(255, 9), nil)
	s.Execute(cli, WriteBlob(bytes.Repeat([]byte{3}, 4097)), nil)
	if got := len(s.Execute(cli, ReadLog(), nil)); got != 8*logCap {
		t.Fatalf("order log holds %d bytes, want %d", got, 8*logCap)
	}
	if got := DecodeU64(s.Execute(cli, GetReg(255), nil)); got != 9 {
		t.Fatalf("reg255 = %d", got)
	}
}

func TestOrderLog(t *testing.T) {
	s := newSvc(t)
	s.Execute(cli+1, AppendLog(), nil)
	s.Execute(cli+2, AppendLog(), nil)
	out := s.Execute(cli, ReadLog(), nil)
	if len(out) != 16 {
		t.Fatalf("log length %d", len(out))
	}
	if DecodeU64(out[:8]) != uint64(uint32(cli+1)) || DecodeU64(out[8:]) != uint64(uint32(cli+2)) {
		t.Fatal("log order wrong")
	}
}

func TestIsReadOnly(t *testing.T) {
	s := newSvc(t)
	ro := [][]byte{Get(), ReadBlob(10), GetReg(1), ReadLog()}
	rw := [][]byte{Incr(), WriteBlob([]byte{1}), SetReg(1, 2), AppendLog(), Noop(), GetTime(), nil}
	for _, op := range ro {
		if !s.IsReadOnly(op) {
			t.Fatalf("op %v not classified read-only", op[:1])
		}
	}
	for _, op := range rw {
		if s.IsReadOnly(op) {
			t.Fatalf("op %v classified read-only", op)
		}
	}
}

func TestTotalityOnGarbage(t *testing.T) {
	// The transition function must be total: junk ops return without panic.
	s := newSvc(t)
	f := func(op []byte) bool {
		_ = s.Execute(cli, op, nil)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminism(t *testing.T) {
	// Two instances fed the same ops produce identical regions.
	r1 := statemachine.NewRegion(MinStateSize, 1024)
	r2 := statemachine.NewRegion(MinStateSize, 1024)
	s1, s2 := New(r1), New(r2)
	ops := [][]byte{Incr(), SetReg(1, 7), AppendLog(), Incr(), WriteBlob([]byte("abc"))}
	for _, op := range ops {
		out1 := s1.Execute(cli, op, nil)
		out2 := s2.Execute(cli, op, nil)
		if !bytes.Equal(out1, out2) {
			t.Fatal("results diverge")
		}
	}
	if !bytes.Equal(r1.Bytes(), r2.Bytes()) {
		t.Fatal("state diverges")
	}
}

func TestNonDetDisabledByDefault(t *testing.T) {
	s := newSvc(t)
	if s.ProposeNonDet() != nil {
		t.Fatal("deterministic service proposed a value")
	}
	if !s.CheckNonDet(nil) {
		t.Fatal("empty nondet rejected")
	}
	if s.CheckNonDet([]byte{1}) {
		t.Fatal("unexpected nondet accepted")
	}
}

func TestNonDetTimestamps(t *testing.T) {
	r := statemachine.NewRegion(MinStateSize, 1024)
	s := New(r)
	s.Timestamps = true
	base := time.Now().UnixNano()
	s.Clock = func() int64 { return base }

	prop := s.ProposeNonDet()
	if len(prop) != 8 {
		t.Fatalf("proposal %d bytes", len(prop))
	}
	if !s.CheckNonDet(prop) {
		t.Fatal("own proposal rejected")
	}
	// Within tolerance.
	s.Clock = func() int64 { return base + int64(5*time.Second) }
	if !s.CheckNonDet(prop) {
		t.Fatal("5s skew rejected with 10s tolerance")
	}
	// Beyond tolerance.
	s.Clock = func() int64 { return base + int64(30*time.Second) }
	if s.CheckNonDet(prop) {
		t.Fatal("30s skew accepted")
	}
	if s.CheckNonDet([]byte{1, 2}) {
		t.Fatal("malformed nondet accepted")
	}
	// GetTime returns the agreed value verbatim.
	out := s.Execute(cli, GetTime(), prop)
	if !bytes.Equal(out, prop) {
		t.Fatal("GetTime did not return the agreed value")
	}
}

func TestDirtyTrackingHonored(t *testing.T) {
	// Every mutation must pass through Modify: after ClearDirty, executing
	// a write op must mark pages dirty again.
	r := statemachine.NewRegion(MinStateSize, 1024)
	s := New(r)
	r.ClearDirty()
	s.Execute(cli, Incr(), nil)
	if len(r.DirtyPages()) == 0 {
		t.Fatal("Incr did not mark dirty pages")
	}
	r.ClearDirty()
	s.Execute(cli, Get(), nil)
	if len(r.DirtyPages()) != 0 {
		t.Fatal("read-only op dirtied pages")
	}
}
