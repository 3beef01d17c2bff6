// Package message defines every wire message of the BFT protocol family
// (BFT-PK, BFT, BFT-PR) together with a compact hand-rolled binary codec.
//
// The layout follows Figure 6-1 of the thesis in spirit: a one-byte type tag,
// a fixed type-specific header, a variable payload, and an authentication
// trailer (authenticator, point-to-point MAC, or signature). Marshal always
// produces body||auth, and what a MAC or signature authenticates is exactly
// the body prefix — the WHOLE body, operation or result bytes included, not
// just the fixed-size header. (The thesis MACs only the header, which
// carries a digest of the rest; adopting that is an open follow-up: it
// changes what Payload and AppendPayload mean, which bench/probes.go pins,
// so it needs its own benchmark change first.)
//
// Decoding is strict — every value has one encoding — so the bytes a message
// was decoded from are the bytes it encodes to. Unmarshal relies on that to
// keep the received body for Payload, which lets verification authenticate
// the datagram in place, and to compute request and batch digests once,
// where the message is decoded.
//
// Decoding copies no bytes. Every variable-length byte field of a decoded
// message — Request.Op, Reply.Result, PrePrepare.NonDet, Data.Page,
// MetaData.Extra, the status bitmaps, NewKey.Keys, BatchBody.Batch and
// Auth.Sig — is a read-only view of the datagram it was decoded from, and
// so are the requests inlined in a pre-prepare. Receivers may share one
// datagram (the simulator hands one payload to every destination), so code
// that keeps such a field may read it for as long as it likes but must
// never write into it; a holder that needs to change the bytes copies them
// first. The views are clipped to their length, so append reallocates.
package message

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/crypto"
)

// ErrTruncated is returned when decoding runs out of bytes.
var ErrTruncated = errors.New("message: truncated encoding")

// ErrBadTag is returned when the type tag is unknown.
var ErrBadTag = errors.New("message: unknown type tag")

// maxSliceLen bounds decoded slice lengths to keep a malicious peer from
// causing huge allocations (a §5.5 denial-of-service defense).
const maxSliceLen = 1 << 26

// writer is an append-only encoder.
type writer struct{ b []byte }

func (w *writer) u8(v uint8)   { w.b = append(w.b, v) }
func (w *writer) u32(v uint32) { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *writer) u64(v uint64) { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) digest(d crypto.Digest) { w.b = append(w.b, d[:]...) }
func (w *writer) mac(m crypto.MAC)       { w.b = append(w.b, m[:]...) }

// bytes writes a length-prefixed byte slice.
func (w *writer) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}

// AppendPayload appends m's body — the exact bytes MACs and signatures
// cover, identical to Payload() — to dst and returns the extended slice.
// It exists for the egress stage, which encodes into pooled wire buffers
// instead of allocating per message.
func AppendPayload(dst []byte, m Message) []byte {
	return encode(dst, m.(bodyCodec), appendBody)
}

// AppendAuth appends an authentication trailer to dst and returns the
// extended slice. AppendPayload followed by AppendAuth produces the same
// bytes as Marshal, but with a caller-chosen trailer: the egress stage seals
// messages without writing into the (event-loop-owned) message object.
func AppendAuth(dst []byte, a *Auth) []byte {
	w := writer{b: dst}
	a.marshal(&w)
	return w.b
}

// reader is a sticky-error decoder.
type reader struct {
	b   []byte
	off int
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrTruncated
	}
}

func (r *reader) u8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || r.off+8 > len(r.b) {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// bool accepts only 0 and 1: one encoding per value, so that the bytes a
// message was decoded from are the bytes it encodes to.
func (r *reader) bool() bool {
	v := r.u8()
	if v > 1 {
		r.fail()
	}
	return v == 1
}

func (r *reader) digest() crypto.Digest {
	var d crypto.Digest
	if r.err != nil || r.off+crypto.DigestSize > len(r.b) {
		r.fail()
		return d
	}
	copy(d[:], r.b[r.off:])
	r.off += crypto.DigestSize
	return d
}

func (r *reader) mac() crypto.MAC {
	var m crypto.MAC
	if r.err != nil || r.off+crypto.MACSize > len(r.b) {
		r.fail()
		return m
	}
	copy(m[:], r.b[r.off:])
	r.off += crypto.MACSize
	return m
}

// bytes reads a length-prefixed byte slice without copying: the result is
// a view of the input, clipped to its length so that appending to it
// reallocates instead of overwriting what follows. Callers must only read
// it.
func (r *reader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil {
		return nil
	}
	if n < 0 || n > maxSliceLen || r.off+n > len(r.b) {
		r.fail()
		return nil
	}
	p := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// sliceLen reads and validates a count of fixed-size records.
func (r *reader) sliceLen(recordSize int) int {
	n := int(r.u32())
	if r.err != nil {
		return 0
	}
	if n < 0 || recordSize <= 0 || n > maxSliceLen/recordSize || r.off+n*recordSize > len(r.b) {
		r.fail()
		return 0
	}
	return n
}

// remaining returns the undecoded suffix.
func (r *reader) remaining() []byte { return r.b[r.off:] }

func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("message: %d trailing bytes", len(r.b)-r.off)
	}
	return nil
}
