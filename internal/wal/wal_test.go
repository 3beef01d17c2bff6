package wal

import (
	"bytes"
	"hash/crc32"
	"testing"
	"time"

	"repro/internal/crypto"
)

func testRecord(seq uint64, kind Kind) Record {
	return Record{
		Kind:   kind,
		Seq:    seq,
		View:   1,
		From:   2,
		Digest: crypto.DigestOf([]byte{byte(seq)}),
		Body:   []byte{byte(seq), byte(seq >> 8), 0xAB},
	}
}

func recordsEqual(a, b Record) bool {
	if a.Kind != b.Kind || a.Flags != b.Flags || a.Seq != b.Seq ||
		a.View != b.View || a.From != b.From || a.Digest != b.Digest {
		return false
	}
	if len(a.Body) != len(b.Body) {
		return false
	}
	for i := range a.Body {
		if a.Body[i] != b.Body[i] {
			return false
		}
	}
	return true
}

func TestFrameRoundTrip(t *testing.T) {
	want := testRecord(7, KindPrepare)
	buf := appendFrame(nil, &want)
	got, n, ok := parseFrame(buf)
	if !ok || n != len(buf) {
		t.Fatalf("parseFrame: ok=%v n=%d len=%d", ok, n, len(buf))
	}
	if !recordsEqual(got, want) {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
	// Every truncation of a valid frame must be rejected, not panic.
	for i := 0; i < len(buf); i++ {
		if _, _, ok := parseFrame(buf[:i]); ok {
			t.Fatalf("truncated frame of %d/%d bytes accepted", i, len(buf))
		}
	}
	// Any single bit flip must fail the CRC (or the structure check).
	for i := 0; i < len(buf); i++ {
		buf[i] ^= 0x01
		if got, _, ok := parseFrame(buf); ok && recordsEqual(got, want) {
			t.Fatalf("bit flip at byte %d went unnoticed", i)
		}
		buf[i] ^= 0x01
	}
}

// twoStepFrame is the frame encoding as it was first written: the body
// into a scratch writer, then header and body onto dst. appendFrame must
// produce the same bytes, so logs written either way replay alike.
func twoStepFrame(dst []byte, rec *Record) []byte {
	w := &writer{}
	rec.marshalBody(w)
	var hdr [frameHeader]byte
	putU32(hdr[0:], uint32(len(w.b)))
	putU32(hdr[4:], crc32.ChecksumIEEE(w.b))
	dst = append(dst, hdr[:]...)
	return append(dst, w.b...)
}

func TestAppendFrameMatchesTwoStepEncoding(t *testing.T) {
	prefix := []byte("earlier frames")
	for k := KindRequest; k <= KindKeys; k++ {
		for _, body := range [][]byte{nil, {0xAB}, bytes.Repeat([]byte{7}, 4096)} {
			rec := testRecord(uint64(k)<<40|uint64(len(body)), k)
			rec.Flags = uint8(k) & 1
			rec.Body = body
			got := appendFrame(append([]byte(nil), prefix...), &rec)
			want := twoStepFrame(append([]byte(nil), prefix...), &rec)
			if !bytes.Equal(got, want) {
				t.Fatalf("kind %d, %d-byte body: frame differs from the two-step encoding", k, len(body))
			}
		}
	}
}

// TestAppendFrameAllocationBudget pins that framing a record into a warmed
// buffer allocates nothing.
func TestAppendFrameAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	rec := testRecord(9, KindPrePrepare)
	rec.Body = make([]byte, 300)
	buf := appendFrame(nil, &rec)
	got := testing.AllocsPerRun(1000, func() { buf = appendFrame(buf[:0], &rec) })
	if got != 0 {
		t.Errorf("%v allocations per framed record, want 0", got)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	want := &Snapshot{
		Seq:   128,
		Root:  crypto.DigestOf([]byte("root")),
		Extra: []byte("reply cache blob"),
		Pages: []Page{
			{Index: 0, LastMod: 100, Content: []byte("page zero")},
			{Index: 3, LastMod: 127, Content: []byte("page three")},
		},
	}
	blob := EncodeSnapshot(want)
	got, err := DecodeSnapshot(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Seq != want.Seq || got.Root != want.Root || string(got.Extra) != string(want.Extra) {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Pages) != 2 || got.Pages[1].LastMod != 127 || string(got.Pages[0].Content) != "page zero" {
		t.Fatalf("pages mismatch: %+v", got.Pages)
	}
	// Corruption anywhere must be detected.
	for i := 0; i < len(blob); i++ {
		blob[i] ^= 0x01
		if _, err := DecodeSnapshot(blob); err == nil {
			t.Fatalf("bit flip at byte %d went unnoticed", i)
		}
		blob[i] ^= 0x01
	}
	if _, err := DecodeSnapshot(blob[:len(blob)-6]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

func TestWriterAppendRecover(t *testing.T) {
	mb := NewMemBackend()
	w, err := Open(mb, nil, Options{SyncWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	var want []Record
	for i := uint64(1); i <= 20; i++ {
		rec := testRecord(i, KindCommit)
		want = append(want, rec)
		w.Append(rec)
	}
	w.Barrier()
	st := w.Stats()
	if st.Appends != 20 {
		t.Fatalf("appends = %d", st.Appends)
	}
	if st.Fsyncs == 0 || st.Fsyncs > 21 {
		t.Fatalf("fsyncs = %d", st.Fsyncs)
	}
	w.Close()

	rec, err := Recover(mb)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn || rec.Snap != nil {
		t.Fatalf("unexpected recovery shape: torn=%v snap=%v", rec.Torn, rec.Snap)
	}
	if len(rec.Records) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(rec.Records), len(want))
	}
	for i := range want {
		if !recordsEqual(rec.Records[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestWriterGroupCommitCoalesces(t *testing.T) {
	mb := NewMemBackend()
	w, err := Open(mb, nil, Options{SyncWait: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 100; i++ {
		w.Append(testRecord(i, KindPrepare))
	}
	w.Barrier()
	st := w.Stats()
	if st.Fsyncs >= 100 {
		t.Fatalf("group commit did not coalesce: %d fsyncs for 100 appends", st.Fsyncs)
	}
	w.Close()
}

func TestWriterSyncEvery(t *testing.T) {
	mb := NewMemBackend()
	w, err := Open(mb, nil, Options{SyncEvery: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		w.Append(testRecord(i, KindPrepare))
	}
	w.Barrier()
	if st := w.Stats(); st.Fsyncs < 10 {
		t.Fatalf("sync-every issued only %d fsyncs for 10 appends", st.Fsyncs)
	}
	w.Close()
}

func TestCrashDropsUnflushedSuffix(t *testing.T) {
	mb := NewMemBackend()
	// A long group-commit window so the tail is guaranteed pending.
	w, err := Open(mb, nil, Options{SyncWait: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(testRecord(1, KindCommit))
	w.Barrier() // first record durable
	for i := uint64(2); i <= 9; i++ {
		w.Append(testRecord(i, KindCommit))
	}
	w.Crash() // power fails mid-batch

	rec, err := Recover(mb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Records) != 1 || rec.Records[0].Seq != 1 {
		t.Fatalf("recovered %d records after crash, want exactly the durable one", len(rec.Records))
	}
}

func TestSnapshotRotationPrunes(t *testing.T) {
	mb := NewMemBackend()
	w, err := Open(mb, nil, Options{SyncWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	for stable := uint64(128); stable <= 512; stable += 128 {
		for s := stable - 127; s <= stable; s += 32 {
			w.Append(testRecord(s, KindCommit))
		}
		w.SaveSnapshot(&Snapshot{Seq: stable, Extra: []byte("x")})
	}
	w.Barrier()
	segs, _ := mb.ListSegments()
	// Current segment (512) + retained previous (384); older pruned.
	if len(segs) != 2 || segs[0] != 384 || segs[1] != 512 {
		t.Fatalf("segments after rotation = %v", segs)
	}
	snaps, _ := mb.ListSnapshots()
	if len(snaps) != 1 || snaps[0] != 512 {
		t.Fatalf("snapshots after rotation = %v", snaps)
	}
	w.Close()

	rec, err := Recover(mb)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snap == nil || rec.Snap.Seq != 512 {
		t.Fatalf("recovered snapshot = %+v", rec.Snap)
	}
	// Replay only sees records from the retained segments.
	for _, r := range rec.Records {
		if r.Seq <= 256 {
			t.Fatalf("record for pruned slot %d survived", r.Seq)
		}
	}
}

func TestRecoverStopsAtCorruptTail(t *testing.T) {
	mb := NewMemBackend()
	w, err := Open(mb, nil, Options{SyncWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 10; i++ {
		w.Append(testRecord(i, KindCommit))
		w.Barrier()
	}
	w.Close()
	mb.CorruptSegmentTail(0, 3) // flip a byte inside the last frame

	rec, err := Recover(mb)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Torn {
		t.Fatal("corrupt tail not reported as torn")
	}
	if len(rec.Records) != 9 {
		t.Fatalf("recovered %d records, want 9 (replay stops at the bad frame)", len(rec.Records))
	}

	// Re-open truncates the bad tail and appends cleanly after it.
	w2, err := Open(mb, rec, Options{SyncWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	w2.AppendSync(testRecord(11, KindCommit))
	w2.Close()
	rec2, err := Recover(mb)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Torn || len(rec2.Records) != 10 || rec2.Records[9].Seq != 11 {
		t.Fatalf("post-truncation recovery: torn=%v n=%d", rec2.Torn, len(rec2.Records))
	}
}

func TestFileBackendRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fb, err := NewFileBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err := Open(fb, nil, Options{SyncWait: -1})
	if err != nil {
		t.Fatal(err)
	}
	w.Append(testRecord(1, KindPrePrepare))
	w.SaveSnapshot(&Snapshot{Seq: 128, Extra: []byte("e"), Pages: []Page{{Index: 0, LastMod: 5, Content: []byte("c")}}})
	w.AppendSync(testRecord(129, KindCommit))
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	w.Close()

	fb2, err := NewFileBackend(dir) // reopen the same directory
	if err != nil {
		t.Fatal(err)
	}
	rec, err := Recover(fb2)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Snap == nil || rec.Snap.Seq != 128 || len(rec.Snap.Pages) != 1 {
		t.Fatalf("snapshot lost across reopen: %+v", rec.Snap)
	}
	// One rotation retains the previous segment (its slots can still be
	// above the new low water mark), so both records replay.
	if len(rec.Records) != 2 || rec.Records[1].Seq != 129 {
		t.Fatalf("records after rotation = %+v", rec.Records)
	}
}
