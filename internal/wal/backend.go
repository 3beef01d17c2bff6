package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Backend is the storage seam beneath the writer: the file implementation
// provides real durability, the memory implementation backs unit tests and
// lets the group-commit machinery run without touching disk. Methods are
// called only from the writer goroutine (and from Recover before the
// writer starts), except where noted.
type Backend interface {
	// ListSegments returns existing segment base sequence numbers,
	// ascending.
	ListSegments() ([]uint64, error)
	// ReadSegment returns a segment's full contents.
	ReadSegment(base uint64) ([]byte, error)
	// OpenAppend opens segment base for appending after truncating it to
	// size bytes, creating it empty when absent (or when size is 0).
	OpenAppend(base uint64, size int64) (SegmentWriter, error)
	// RemoveSegment deletes a segment.
	RemoveSegment(base uint64) error
	// ListSnapshots returns existing snapshot sequence numbers, ascending.
	ListSnapshots() ([]uint64, error)
	// ReadSnapshot returns a snapshot blob.
	ReadSnapshot(seq uint64) ([]byte, error)
	// WriteSnapshot durably stores a snapshot blob, atomically with
	// respect to crashes (the previous snapshot survives a torn write).
	WriteSnapshot(seq uint64, data []byte) error
	// RemoveSnapshot deletes a snapshot.
	RemoveSnapshot(seq uint64) error
}

// SegmentWriter is an open segment accepting appends. Write buffers in the
// OS; Sync makes everything written so far durable.
type SegmentWriter interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// ---------------------------------------------------------------------------
// File backend
// ---------------------------------------------------------------------------

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
)

// FileBackend stores segments and snapshots as files in one directory. The
// writer goroutine is its sole user after Open.
type FileBackend struct {
	dir string
}

// NewFileBackend creates (if needed) and wraps the directory.
func NewFileBackend(dir string) (*FileBackend, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &FileBackend{dir: dir}, nil
}

// Dir returns the backing directory.
func (fb *FileBackend) Dir() string { return fb.dir }

func (fb *FileBackend) segPath(base uint64) string {
	return filepath.Join(fb.dir, fmt.Sprintf("%s%020d%s", segPrefix, base, segSuffix))
}

func (fb *FileBackend) snapPath(seq uint64) string {
	return filepath.Join(fb.dir, fmt.Sprintf("%s%020d", snapPrefix, seq))
}

// list scans the directory for names with the given prefix/suffix and
// returns their decoded sequence numbers, ascending.
func (fb *FileBackend) list(prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(fb.dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		mid := name[len(prefix) : len(name)-len(suffix)]
		n, err := strconv.ParseUint(mid, 10, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (fb *FileBackend) ListSegments() ([]uint64, error) { return fb.list(segPrefix, segSuffix) }

func (fb *FileBackend) ReadSegment(base uint64) ([]byte, error) {
	return os.ReadFile(fb.segPath(base))
}

func (fb *FileBackend) OpenAppend(base uint64, size int64) (SegmentWriter, error) {
	path := fb.segPath(base)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (fb *FileBackend) RemoveSegment(base uint64) error {
	return os.Remove(fb.segPath(base))
}

func (fb *FileBackend) ListSnapshots() ([]uint64, error) { return fb.list(snapPrefix, "") }

func (fb *FileBackend) ReadSnapshot(seq uint64) ([]byte, error) {
	return os.ReadFile(fb.snapPath(seq))
}

// WriteSnapshot writes tmp + fsync + rename + fsync(dir): a crash at any
// point leaves either the old snapshot set or the old set plus a complete
// new snapshot, never a half-written one under the final name.
func (fb *FileBackend) WriteSnapshot(seq uint64, data []byte) error {
	tmp := fb.snapPath(seq) + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, fb.snapPath(seq)); err != nil {
		os.Remove(tmp)
		return err
	}
	if d, err := os.Open(fb.dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

func (fb *FileBackend) RemoveSnapshot(seq uint64) error {
	return os.Remove(fb.snapPath(seq))
}

// ---------------------------------------------------------------------------
// Memory backend
// ---------------------------------------------------------------------------

// MemBackend keeps segments and snapshots in process memory: the unit-test
// double for the storage seam (crash-cut tests drop the writer's pending
// queue, which is where the un-fsynced suffix lives — see Writer.Crash).
// Internally locked: tests inspect it while a writer appends.
//
// bftlint:owner=shared (internally locked)
type MemBackend struct {
	mu    sync.Mutex
	segs  map[uint64][]byte
	snaps map[uint64][]byte
}

// NewMemBackend creates an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{segs: make(map[uint64][]byte), snaps: make(map[uint64][]byte)}
}

func (mb *MemBackend) sorted(m map[uint64][]byte) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (mb *MemBackend) ListSegments() ([]uint64, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.sorted(mb.segs), nil
}

func (mb *MemBackend) ReadSegment(base uint64) ([]byte, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	b, ok := mb.segs[base]
	if !ok {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), b...), nil
}

func (mb *MemBackend) OpenAppend(base uint64, size int64) (SegmentWriter, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	b := mb.segs[base]
	if int64(len(b)) > size {
		b = b[:size]
	}
	mb.segs[base] = b
	return &memSegment{mb: mb, base: base}, nil
}

func (mb *MemBackend) RemoveSegment(base uint64) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	delete(mb.segs, base)
	return nil
}

func (mb *MemBackend) ListSnapshots() ([]uint64, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	return mb.sorted(mb.snaps), nil
}

func (mb *MemBackend) ReadSnapshot(seq uint64) ([]byte, error) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	b, ok := mb.snaps[seq]
	if !ok {
		return nil, os.ErrNotExist
	}
	return append([]byte(nil), b...), nil
}

func (mb *MemBackend) WriteSnapshot(seq uint64, data []byte) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.snaps[seq] = append([]byte(nil), data...)
	return nil
}

func (mb *MemBackend) RemoveSnapshot(seq uint64) error {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	delete(mb.snaps, seq)
	return nil
}

// CorruptSegmentTail flips one byte near the end of a segment (torn-write
// test hook).
func (mb *MemBackend) CorruptSegmentTail(base uint64, back int) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	b := mb.segs[base]
	if i := len(b) - back; i >= 0 && i < len(b) {
		b[i] ^= 0xFF
	}
}

// memSegment appends into its backend's map under the lock.
type memSegment struct {
	mb   *MemBackend
	base uint64
}

func (s *memSegment) Write(p []byte) (int, error) {
	s.mb.mu.Lock()
	s.mb.segs[s.base] = append(s.mb.segs[s.base], p...)
	s.mb.mu.Unlock()
	return len(p), nil
}

func (s *memSegment) Sync() error  { return nil }
func (s *memSegment) Close() error { return nil }
