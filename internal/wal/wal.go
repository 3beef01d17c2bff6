package wal

import (
	"sync"
	"sync/atomic"
	"time"
)

// segMagic begins every segment, followed by the u64 base sequence number.
var segMagic = [8]byte{'B', 'F', 'T', 'W', 'A', 'L', '1', '\n'}

// segHeader is the segment header length: magic + base.
const segHeader = 16

func encodeSegHeader(base uint64) []byte {
	b := make([]byte, 0, segHeader)
	b = append(b, segMagic[:]...)
	var v [8]byte
	putU32(v[0:], uint32(base))
	putU32(v[4:], uint32(base>>32))
	return append(b, v[:]...)
}

func checkSegHeader(b []byte, base uint64) bool {
	if len(b) < segHeader {
		return false
	}
	for i := range segMagic {
		if b[i] != segMagic[i] {
			return false
		}
	}
	got := uint64(getU32(b[8:])) | uint64(getU32(b[12:]))<<32
	return got == base
}

// Options tunes the writer. The zero value is the async group-commit
// default: coalesce appends for up to DefaultSyncWait, then one
// write+fsync for the whole group.
type Options struct {
	// SyncEvery forces a write+fsync per record — the honest worst case
	// the durability benchmark measures against.
	SyncEvery bool
	// SyncWait is the minimum interval between group commits. A record
	// that arrives when the last fsync is at least this old flushes
	// immediately (an idle or lightly loaded replica pays no added
	// latency); otherwise the writer collects records until the interval
	// elapses and issues one fsync for the whole group, capping the
	// fsync rate — and the per-fsync stall injected into the protocol —
	// at 1/SyncWait under load. Zero means DefaultSyncWait; negative
	// flushes with no wait (still coalescing whatever is already queued).
	SyncWait time.Duration
}

// DefaultSyncWait is the default minimum interval between group commits.
// 25ms bounds the crash-durability window while keeping the fsync rate
// (and the syscall stalls it injects on small machines) low enough that
// agreement throughput stays close to the in-memory configuration; an
// idle replica still syncs every record immediately.
const DefaultSyncWait = 25 * time.Millisecond

// queueCap bounds the command queue between the protocol core and the
// writer goroutine; a full queue blocks the appender (backpressure, not
// loss — a dropped record would silently weaken durability).
const queueCap = 4096

func (o *Options) validate() {
	if o.SyncWait == 0 {
		o.SyncWait = DefaultSyncWait
	}
	if o.SyncWait < 0 {
		o.SyncWait = 0
	}
}

// Stats counts writer activity.
type Stats struct {
	Appends uint64 // records enqueued
	Fsyncs  uint64 // fsync batches issued (group commits)
	Bytes   uint64 // frame bytes written
}

// Recovered is the result of scanning a log directory at startup: the
// newest valid snapshot, every valid record in order, and where the writer
// must truncate before resuming appends.
type Recovered struct {
	// Snap is the newest snapshot that decoded and checksummed clean;
	// nil when none exists.
	Snap *Snapshot
	// Records holds every valid record from the retained segments in
	// append order, stopping at the first corrupt or truncated frame.
	Records []Record
	// Torn reports that the scan stopped early (truncated tail, CRC
	// mismatch, or a bad segment header): the suffix is lost and state
	// transfer covers whatever it contained.
	Torn bool

	// Resume point for Open: truncate segment tailBase to tailSize and
	// append there; segments after it (if any survived a torn middle) are
	// deleted so the disk agrees with what was replayed.
	tailBase uint64
	tailSize int64
	hasTail  bool
	drop     []uint64 // segments after the resume point
}

// Recover scans the backend read-only. It never fails on corruption —
// corrupt suffixes shorten the replay — and returns an error only for
// backend I/O failures.
func Recover(b Backend) (*Recovered, error) {
	rec := &Recovered{}

	// Newest snapshot that validates wins; older ones are fallbacks.
	snaps, err := b.ListSnapshots()
	if err != nil {
		return nil, err
	}
	for i := len(snaps) - 1; i >= 0; i-- {
		blob, err := b.ReadSnapshot(snaps[i])
		if err != nil {
			continue
		}
		s, derr := DecodeSnapshot(blob)
		if derr != nil || s.Seq != snaps[i] {
			rec.Torn = true
			continue
		}
		rec.Snap = s
		break
	}

	segs, err := b.ListSegments()
	if err != nil {
		return nil, err
	}
	for i, base := range segs {
		data, err := b.ReadSegment(base)
		if err != nil {
			return nil, err
		}
		if !checkSegHeader(data, base) {
			// Unreadable header: resume by rewriting this segment from
			// scratch and drop everything after it.
			rec.Torn = true
			rec.tailBase, rec.tailSize, rec.hasTail = base, 0, true
			rec.drop = append([]uint64(nil), segs[i+1:]...)
			return rec, nil
		}
		off := segHeader
		for off < len(data) {
			r, n, ok := parseFrame(data[off:])
			if !ok {
				// First bad frame: replay stops here, the writer truncates
				// here, later segments (written after the corruption) are
				// dropped so disk state matches the replayed prefix.
				rec.Torn = true
				rec.tailBase, rec.tailSize, rec.hasTail = base, int64(off), true
				rec.drop = append([]uint64(nil), segs[i+1:]...)
				return rec, nil
			}
			rec.Records = append(rec.Records, r)
			off += n
		}
		rec.tailBase, rec.tailSize, rec.hasTail = base, int64(len(data)), true
	}
	return rec, nil
}

// wcmd is one writer-goroutine command.
// wcmd is one urgent writer-goroutine command (records travel separately,
// by value, so the hot path never heap-allocates per append).
type wcmd struct {
	barrier chan struct{}
	snap    *Snapshot
	stop    bool
}

// Writer is the async group-commit log writer. Append enqueues and
// returns; a dedicated goroutine coalesces queued records into one
// write+fsync per group. Barrier blocks until every
// record enqueued before it is durable — the protocol calls it right
// before the sends the paper requires to be stable.
//
// bftlint:owner=shared (channels and atomics; the writer goroutine's fields are marked below)
// bftlint:longlived
type Writer struct {
	opts Options

	cmdC  chan Record   // record appends only
	urgC  chan wcmd     // barrier/snapshot/stop
	killC chan struct{} // bftlint:owner=shared
	doneC chan struct{} // bftlint:owner=shared
	kill1 sync.Once
	stop1 sync.Once

	appends atomic.Uint64
	fsyncs  atomic.Uint64
	bytes   atomic.Uint64
	errV    atomic.Value // error; sticky first I/O failure

	// Worker-goroutine state: the log goroutine exclusively owns the
	// backend handle and the open segment after Open returns.
	b        Backend
	seg      SegmentWriter
	segBase  uint64
	prevBase uint64
	hasPrev  bool
}

// Open prepares the backend for appending — truncating the recovered tail
// so disk state matches the replayed prefix, deleting post-corruption
// segments, or creating the first segment — and starts the writer
// goroutine.
func Open(b Backend, rec *Recovered, opts Options) (*Writer, error) {
	opts.validate()
	w := &Writer{
		opts:  opts,
		cmdC:  make(chan Record, queueCap),
		urgC:  make(chan wcmd),
		killC: make(chan struct{}),
		doneC: make(chan struct{}),
		b:     b,
	}
	if rec == nil {
		rec = &Recovered{}
	}
	for _, base := range rec.drop {
		if err := b.RemoveSegment(base); err != nil {
			return nil, err
		}
	}
	if rec.hasTail {
		seg, err := b.OpenAppend(rec.tailBase, rec.tailSize)
		if err != nil {
			return nil, err
		}
		w.seg, w.segBase = seg, rec.tailBase
		if rec.tailSize < segHeader {
			if _, err := seg.Write(encodeSegHeader(rec.tailBase)); err != nil {
				return nil, err
			}
		}
	} else {
		base := uint64(0)
		if rec.Snap != nil {
			base = rec.Snap.Seq
		}
		seg, err := b.OpenAppend(base, 0)
		if err != nil {
			return nil, err
		}
		if _, err := seg.Write(encodeSegHeader(base)); err != nil {
			return nil, err
		}
		w.seg, w.segBase = seg, base
	}
	go w.loop()
	return w, nil
}

// Err returns the writer's sticky I/O error, if any.
func (w *Writer) Err() error {
	if e := w.errV.Load(); e != nil {
		return e.(error)
	}
	return nil
}

// Stats returns a snapshot of the writer's counters.
func (w *Writer) Stats() Stats {
	return Stats{
		Appends: w.appends.Load(),
		Fsyncs:  w.fsyncs.Load(),
		Bytes:   w.bytes.Load(),
	}
}

// Append enqueues one record for the next group commit. It blocks only on
// queue backpressure, never on the fsync itself.
func (w *Writer) Append(rec Record) {
	w.appends.Add(1)
	select {
	case w.cmdC <- rec:
	case <-w.killC:
	case <-w.doneC:
	}
}

// Barrier blocks until every previously appended record is durable — the
// §4.3/§2.3.4 stability barrier carried by checkpoint votes and
// view-change multicasts.
func (w *Writer) Barrier() {
	ch := make(chan struct{})
	select {
	case w.urgC <- wcmd{barrier: ch}:
	case <-w.killC:
		return
	case <-w.doneC:
		return
	}
	select {
	case <-ch:
	case <-w.killC:
	case <-w.doneC:
	}
}

// AppendSync appends one record and waits for it to be durable.
func (w *Writer) AppendSync(rec Record) {
	w.Append(rec)
	w.Barrier()
}

// SaveSnapshot enqueues a stable-checkpoint snapshot: the writer flushes
// pending records, durably writes the snapshot, rotates to a fresh segment
// based at snap.Seq, and prunes segments and snapshots the replay window
// no longer needs. Ordering with earlier Appends is preserved.
func (w *Writer) SaveSnapshot(snap *Snapshot) {
	select {
	case w.urgC <- wcmd{snap: snap}:
	case <-w.killC:
	case <-w.doneC:
	}
}

// Close flushes everything queued, fsyncs, and stops the writer.
func (w *Writer) Close() {
	w.stop1.Do(func() {
		select {
		case w.urgC <- wcmd{stop: true}:
			<-w.doneC
		case <-w.killC:
			<-w.doneC
		case <-w.doneC:
		}
	})
}

// Crash stops the writer WITHOUT flushing: every record not yet covered by
// a group commit is abandoned, exactly like power failing mid-batch. Test
// and Kill hook.
func (w *Writer) Crash() {
	w.kill1.Do(func() { close(w.killC) })
	<-w.doneC
}

// ---------------------------------------------------------------------------
// Writer goroutine
// ---------------------------------------------------------------------------

// loop is the log goroutine: it exclusively owns the open segment file and
// the backend, draining the command queue and coalescing appends into one
// write+fsync per group.
//
// bftlint:entrypoint=worker
func (w *Writer) loop() {
	defer close(w.doneC)
	var buf []byte         // encoded frames awaiting the next group commit
	var lastSync time.Time // end of the previous flush; zero → flush now
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()

	flush := func() {
		if len(buf) == 0 || w.Err() != nil {
			buf = buf[:0]
			return
		}
		if _, err := w.seg.Write(buf); err != nil {
			w.fail(err)
			buf = buf[:0]
			return
		}
		if err := w.seg.Sync(); err != nil {
			w.fail(err)
			buf = buf[:0]
			return
		}
		w.fsyncs.Add(1)
		w.bytes.Add(uint64(len(buf)))
		buf = buf[:0]
		lastSync = time.Now()
	}

	// drain moves every record already queued into buf without blocking.
	// Appends never sit behind a channel receive per record — the whole
	// backlog is swallowed in one pass.
	drain := func() {
		for {
			select {
			case rec := <-w.cmdC:
				buf = appendFrame(buf, &rec)
				if w.opts.SyncEvery {
					flush() // per-record fsync even through a backlog
				}
			default:
				return
			}
		}
	}

	// urgent handles a barrier, snapshot, or stop. Everything appended
	// before the command must be durable before it acts, so: drain the
	// record queue, flush, then act. Reports whether the writer must exit.
	urgent := func(c wcmd) (done bool) {
		drain()
		flush()
		switch {
		case c.stop:
			return true
		case c.barrier != nil:
			close(c.barrier)
		case c.snap != nil:
			w.rotate(c.snap)
		}
		return false
	}

	for {
		select {
		case <-w.killC:
			return
		case c := <-w.urgC:
			if urgent(c) {
				return
			}
		case rec := <-w.cmdC:
			buf = appendFrame(buf, &rec)
			if w.opts.SyncEvery {
				flush()
				continue
			}
			// Group commit with a minimum fsync interval: if the last
			// flush is at least SyncWait old, sync now (after draining
			// whatever else is queued); otherwise sleep until
			// lastSync+SyncWait and issue one fsync for the whole group.
			// While sleeping the writer deliberately does NOT receive from
			// cmdC — records pile up in the buffered queue and are drained
			// in one pass when the window closes. One writer wakeup per
			// group instead of one per record keeps the log goroutine off
			// the scheduler's critical path on small machines. Barriers
			// and snapshots cut the window short; a kill abandons it.
			if w.opts.SyncWait > 0 {
				if wait := w.opts.SyncWait - time.Since(lastSync); wait > 0 {
					timer.Reset(wait)
				window:
					for {
						select {
						case <-w.killC:
							return
						case <-timer.C:
							break window
						case c := <-w.urgC:
							if urgent(c) {
								return
							}
							break window
						}
					}
					if !timer.Stop() {
						select {
						case <-timer.C:
						default:
						}
					}
				}
			}
			drain()
			flush()
		}
	}
}

// rotate durably writes a stable-checkpoint snapshot, starts a fresh
// segment based at its sequence number, and prunes history: segments older
// than the PREVIOUS base are deleted (slots still above the new low water
// mark were logged while the previous window was current, so the previous
// segment must survive one more rotation), as are superseded snapshots.
func (w *Writer) rotate(snap *Snapshot) {
	if w.Err() != nil {
		return
	}
	if err := w.b.WriteSnapshot(snap.Seq, EncodeSnapshot(snap)); err != nil {
		w.fail(err)
		return
	}
	if snap.Seq <= w.segBase {
		// Replaying a stable point we already rotated at (or a regression
		// after state transfer): keep the current segment.
		w.pruneSnapshots(snap.Seq)
		return
	}
	seg, err := w.b.OpenAppend(snap.Seq, 0)
	if err != nil {
		w.fail(err)
		return
	}
	if _, err := seg.Write(encodeSegHeader(snap.Seq)); err != nil {
		w.fail(err)
		return
	}
	w.seg.Close()
	oldPrev, hadPrev := w.prevBase, w.hasPrev
	w.prevBase, w.hasPrev = w.segBase, true
	w.seg, w.segBase = seg, snap.Seq
	if hadPrev {
		if bases, err := w.b.ListSegments(); err == nil {
			for _, base := range bases {
				if base <= oldPrev && base != w.segBase && base != w.prevBase {
					w.b.RemoveSegment(base)
				}
			}
		}
	}
	w.pruneSnapshots(snap.Seq)
}

// pruneSnapshots removes snapshots older than seq.
func (w *Writer) pruneSnapshots(seq uint64) {
	if seqs, err := w.b.ListSnapshots(); err == nil {
		for _, s := range seqs {
			if s < seq {
				w.b.RemoveSnapshot(s)
			}
		}
	}
}

// fail records the first backend error; later operations no-op. Durability
// is lost from here on but the replica keeps serving — on restart the
// replay falls back to the shorter durable prefix plus state transfer,
// exactly the torn-tail degradation path.
func (w *Writer) fail(err error) {
	w.errV.CompareAndSwap(nil, err)
}
