// Package wal is the replica's durability subsystem: a write-ahead log of
// length-prefixed, CRC-framed records (protocol votes, accepted batches,
// view transitions, stable-checkpoint certificates) plus checkpoint-state
// snapshots, behind an async group-commit writer that batches fsyncs off
// the event loop. The protocol core appends and continues; a dedicated log
// goroutine coalesces appends into one write+fsync per group, and sends the
// paper requires to be stable (checkpoint votes, view-change multicasts)
// carry an explicit durability barrier. The log truncates at each stable
// checkpoint: the replay window is exactly the water-mark window, so a
// restarted replica rebuilds its slots from the newest snapshot plus the
// retained segments and catches the tail up through ordinary state
// transfer.
//
// On-disk layout (one directory per replica):
//
//	wal-<base>.log   segment: 16-byte header (magic + base seq), then
//	                 frames [u32 len][u32 crc32][payload]. A new segment
//	                 starts at every stable checkpoint; the previous one is
//	                 retained (live slots above the new low water mark were
//	                 logged while the previous window was current), older
//	                 ones are deleted.
//	snap-<seq>       checkpoint snapshot: magic, body, crc32 trailer,
//	                 written tmp+rename so a torn write never destroys the
//	                 previous snapshot.
//
// Replay stops at the first frame whose CRC (or structure) fails — a torn
// or bit-flipped tail degrades to a shorter replay and a wider state
// transfer, never a panic — and the writer truncates the segment there
// before resuming appends.
package wal

import (
	"hash/crc32"

	"repro/internal/crypto"
)

// Kind tags one log record.
type Kind uint8

// Record kinds.
const (
	// KindRequest is a separately-transmitted request body accepted into
	// the request store (inline bodies ride inside KindPrePrepare).
	KindRequest Kind = 1 + iota
	// KindPrePrepare is an accepted pre-prepare (the full marshaled
	// message, inline bodies included) — primary's own or a backup's.
	KindPrePrepare
	// KindPrepare is one prepare vote recorded in a slot (From tells
	// whose; the replica's own votes restore the SentPrepare dedupe flag).
	KindPrepare
	// KindCommit is one commit vote recorded in a slot.
	KindCommit
	// KindStable is a stable-checkpoint certificate marker: Seq reached a
	// quorum of matching checkpoint votes with digest Digest. Replay
	// slides the water-mark window over it (rotation is throttled, so the
	// retained tail can span several stable checkpoints); it is also the
	// audit trail of log truncations.
	KindStable
	// KindView is a view transition: Flags&ViewActive distinguishes
	// entering a new view (active) from starting a view change (pending).
	KindView
	// KindKeys is session-key-exchange state (§4.3.1), which peers hold us
	// to across a crash: with Flags&KeysSelf it is our own refreshment
	// (View=epoch, Seq=co-processor counter, Body=per-peer RNG seeds —
	// RefreshIn is deterministic given a seed, so replay regenerates the
	// identical in-keys); otherwise it is a peer's accepted new-key
	// announcement (From=peer, View=epoch, Seq=counter, Body=the out-key
	// it chose for our traffic to it).
	KindKeys
)

// ViewActive is the KindView flag bit for "new-view processed" (§3.2.4);
// clear means the replica multicast a view-change and is waiting.
const ViewActive uint8 = 1

// KeysSelf is the KindKeys flag bit for "our own refreshment" (seeds);
// clear means a peer's announcement (key).
const KeysSelf uint8 = 1

// Record is one WAL entry. One struct covers every kind — the unused
// fields of a kind are written as zeros — so the frame codec, the fuzzer,
// and the bftwire symmetry check all see a single layout.
type Record struct {
	Kind   Kind
	Flags  uint8
	Seq    uint64
	View   uint64
	From   uint32
	Digest crypto.Digest
	Body   []byte
}

// marshalBody appends the record's fields (everything but the frame).
func (rec *Record) marshalBody(w *writer) {
	w.u8(uint8(rec.Kind))
	w.u8(rec.Flags)
	w.u64(rec.Seq)
	w.u64(rec.View)
	w.u32(rec.From)
	w.digest(rec.Digest)
	w.bytes(rec.Body)
}

// unmarshalBody decodes the record's fields.
func (rec *Record) unmarshalBody(r *reader) {
	rec.Kind = Kind(r.u8())
	rec.Flags = r.u8()
	rec.Seq = r.u64()
	rec.View = r.u64()
	rec.From = r.u32()
	rec.Digest = r.digest()
	rec.Body = r.bytes()
}

// frame layout: [u32 payload len][u32 crc32(payload)][payload].
const frameHeader = 8

// appendFrame encodes rec as one CRC-framed entry onto dst: it reserves
// the header, appends the body in place, then fills in the body's length
// and checksum.
func appendFrame(dst []byte, rec *Record) []byte {
	start := len(dst)
	var hdr [frameHeader]byte
	w := writer{b: append(dst, hdr[:]...)}
	rec.marshalBody(&w)
	body := w.b[start+frameHeader:]
	putU32(w.b[start:], uint32(len(body)))
	putU32(w.b[start+4:], crc32.ChecksumIEEE(body))
	return w.b
}

// parseFrame decodes one frame from b. It returns the record, the total
// frame size consumed, and false if the frame is truncated, oversized,
// checksum-corrupt, or structurally invalid — the replay stop condition.
func parseFrame(b []byte) (Record, int, bool) {
	var rec Record
	if len(b) < frameHeader {
		return rec, 0, false
	}
	n := int(getU32(b[0:]))
	if n < 0 || n > maxSliceLen || len(b) < frameHeader+n {
		return rec, 0, false
	}
	payload := b[frameHeader : frameHeader+n]
	if crc32.ChecksumIEEE(payload) != getU32(b[4:]) {
		return rec, 0, false
	}
	r := newReader(payload)
	rec.unmarshalBody(r)
	if r.done() != nil {
		return rec, 0, false
	}
	return rec, frameHeader + n, true
}

func putU32(b []byte, v uint32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}
