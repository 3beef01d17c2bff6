// Package statemachine defines the deterministic state machine abstraction
// the BFT library replicates (Definition 2.4.1 of the thesis) and the paged
// memory region in which services keep their state.
//
// Like the thesis's library, the service state lives in a contiguous memory
// region allocated by the library and divided into fixed-size pages. The
// service must announce writes via Region.Modify (the thesis's Byz_modify
// upcall) so the checkpoint manager can copy-on-write the pages about to
// change and update digests incrementally.
package statemachine

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"

	"repro/internal/message"
)

// Service is the replicated application. Implementations must be
// deterministic: the result and the new state must be a pure function of the
// current state, the operation, the client id and the agreed
// non-deterministic value. The transition function must be total — invalid
// operations must return an encoded error result, never diverge.
type Service interface {
	// Execute applies one operation and returns its result. The client id is
	// passed so the service can enforce access control (§2.4.2). nondet is
	// the value agreed through the protocol for this batch (§5.4).
	//
	// Concurrency: a replica calls all four methods on its event loop, one
	// call at a time, so an implementation needs no locking of its own.
	Execute(client message.NodeID, op []byte, nondet []byte) []byte

	// IsReadOnly reports whether op does not modify state. It is the
	// service-specific upcall guarding the read-only optimization (§5.1.3);
	// it must be conservative because clients can lie.
	IsReadOnly(op []byte) bool

	// ProposeNonDet is invoked at the primary to pick the non-deterministic
	// value for a batch (e.g. a timestamp). Deterministic services return
	// nil.
	ProposeNonDet() []byte

	// CheckNonDet is invoked at backups to validate the primary's proposal.
	// The decision must be deterministic given state and arguments.
	CheckNonDet(nondet []byte) bool
}

// Region is the paged state of one replica. The zero offset layout is owned
// entirely by the service; the replication library only sees pages.
//
// Ownership: a replica's Region belongs to its event loop. The mutGuard
// below turns a mutation from another goroutine into a panic even without
// the race detector; the owner annotation lets bftowner report the same
// violations at build time.
//
// bftlint:owner=eventloop
type Region struct {
	pageSize int
	data     []byte
	dirty    map[int]struct{}
	// onModify, when set, is invoked before a page is first dirtied; the
	// checkpoint manager uses it for copy-on-write snapshots.
	onModify func(page int)
	// mutGuard is a cheap single-mutator assertion: every mutation
	// announcement CASes it 0->1 and back, so two goroutines mutating
	// concurrently trip the panic with high probability; bftowner reports
	// the same violations statically.
	mutGuard atomic.Int32
}

// NewRegion allocates a region of size bytes divided into pageSize pages.
// size is rounded up to a whole number of pages.
func NewRegion(size, pageSize int) *Region {
	if pageSize <= 0 {
		panic("statemachine: page size must be positive")
	}
	pages := (size + pageSize - 1) / pageSize
	if pages == 0 {
		pages = 1
	}
	return &Region{
		pageSize: pageSize,
		data:     make([]byte, pages*pageSize),
		dirty:    make(map[int]struct{}),
	}
}

// PageSize returns the page size in bytes.
func (r *Region) PageSize() int { return r.pageSize }

// NumPages returns the number of pages.
func (r *Region) NumPages() int { return len(r.data) / r.pageSize }

// Size returns the total size in bytes.
func (r *Region) Size() int { return len(r.data) }

// SetOnModify installs the copy-on-write hook. Pass nil to clear.
func (r *Region) SetOnModify(f func(page int)) { r.onModify = f }

// beginMut asserts this goroutine is the Region's sole mutator right now;
// endMut releases the assertion. The passing case is one CAS: the stack is
// walked only on violation, to name the call site that lost the race so the
// runtime diagnostic cross-references the static bftowner report (the
// holder is whoever that report pairs it with; recording it would put an
// unwind on every mutation for a message that should never print).
func (r *Region) beginMut() {
	if !r.mutGuard.CompareAndSwap(0, 1) {
		panic("statemachine: concurrent Region mutation (single-owner contract violated) by " +
			mutSite(mutCallerPC()))
	}
}

func (r *Region) endMut() { r.mutGuard.Store(0) }

// pkgPrefix identifies this package's frames when walking the stack for
// the first external caller.
const pkgPrefix = "repro/internal/statemachine."

// mutCallerPC returns the return PC of the first stack frame outside this
// package: the service or executor call site that entered the Region.
func mutCallerPC() uintptr {
	var pcs [8]uintptr
	n := runtime.Callers(2, pcs[:])
	for _, pc := range pcs[:n] {
		fn := runtime.FuncForPC(pc - 1)
		if fn == nil || !strings.HasPrefix(fn.Name(), pkgPrefix) {
			return pc
		}
	}
	return 0
}

// mutSite formats a PC captured by mutCallerPC as "func (file:line)".
func mutSite(pc uintptr) string {
	if pc == 0 {
		return "unknown call site"
	}
	fn := runtime.FuncForPC(pc - 1)
	if fn == nil {
		return "unknown call site"
	}
	file, line := fn.FileLine(pc - 1)
	return fmt.Sprintf("%s (%s:%d)", fn.Name(), file, line)
}

// Modify declares that [off, off+n) is about to be written. Services must
// call it before mutating state, exactly like the thesis's Byz_modify.
func (r *Region) Modify(off, n int) {
	if n <= 0 {
		return
	}
	r.beginMut()
	defer r.endMut()
	if off < 0 || off+n > len(r.data) {
		panic(fmt.Sprintf("statemachine: Modify(%d,%d) outside region of %d bytes", off, n, len(r.data)))
	}
	first := off / r.pageSize
	last := (off + n - 1) / r.pageSize
	for p := first; p <= last; p++ {
		if _, ok := r.dirty[p]; !ok {
			if r.onModify != nil {
				r.onModify(p)
			}
			r.dirty[p] = struct{}{}
		}
	}
}

// WriteAt copies b into the region at off, handling Modify itself.
func (r *Region) WriteAt(off int, b []byte) {
	r.Modify(off, len(b))
	copy(r.data[off:], b)
}

// ReadAt returns a copy of n bytes at off.
func (r *Region) ReadAt(off, n int) []byte {
	out := make([]byte, n)
	copy(out, r.data[off:off+n])
	return out
}

// Bytes exposes the raw region. Callers that write through it must call
// Modify first; read-only access is free.
func (r *Region) Bytes() []byte { return r.data }

// Page returns the live contents of page p (not a copy).
func (r *Region) Page(p int) []byte {
	return r.data[p*r.pageSize : (p+1)*r.pageSize]
}

// SetPage overwrites page p (used by state transfer).
func (r *Region) SetPage(p int, b []byte) {
	r.Modify(p*r.pageSize, r.pageSize)
	copy(r.Page(p), b)
}

// DirtyPages returns the pages touched since the last ClearDirty, sorted
// ascending.
func (r *Region) DirtyPages() []int {
	out := make([]int, 0, len(r.dirty))
	for p := range r.dirty {
		out = append(out, p)
	}
	// insertion sort: dirty sets are small between checkpoints
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ClearDirty resets the dirty set (after a checkpoint is taken).
func (r *Region) ClearDirty() {
	r.beginMut()
	defer r.endMut()
	clear(r.dirty)
}

// Clone copies the full region contents (used for baselines and tests).
func (r *Region) Clone() *Region {
	nr := NewRegion(len(r.data), r.pageSize)
	copy(nr.data, r.data)
	return nr
}
