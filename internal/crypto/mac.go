package crypto

import (
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"
)

// MACs are HMAC-SHA-256 truncated to MACSize bytes. HMAC hashes twice —
// H((k⊕opad) ‖ H((k⊕ipad) ‖ payload)) — and each hash starts by absorbing a
// key-derived block that is the same for every tag under that key. A
// sessionKey therefore carries the two SHA-256 states AFTER that block,
// derived once when the key is installed; producing a tag restores them
// into a pooled scratch hash, which leaves only the payload and the 32-byte
// inner digest to compress and allocates nothing. Tags are bit-identical to
// crypto/hmac's (the equivalence test pins this), so nothing on the wire,
// in a WAL record or in a captured trace depends on which path made them.

// hashScratch is one reusable SHA-256 state plus the buffers a tag or a
// digest needs, so that neither the state nor a Sum destination is ever
// heap-allocated per call. Scratches live in hashPool.
type hashScratch struct {
	h       hash.Hash
	restore encoding.BinaryUnmarshaler // h's state-restore face
	pad     [sha256.BlockSize]byte     // key block being derived
	inner   [sha256.Size]byte          // inner digest awaiting the outer hash
	sum     [sha256.Size]byte
}

var hashPool = sync.Pool{New: func() any {
	h := sha256.New()
	return &hashScratch{h: h, restore: h.(encoding.BinaryUnmarshaler)}
}}

func getScratch() *hashScratch { return hashPool.Get().(*hashScratch) }

// absorbPad resets the scratch hash and absorbs key⊕x repeated to one block:
// the HMAC inner (x = 0x36) or outer (x = 0x5c) key block. Keys longer than
// a block are hashed first, as HMAC specifies.
func (s *hashScratch) absorbPad(key []byte, x byte) {
	s.h.Reset()
	if len(key) > sha256.BlockSize {
		s.h.Write(key)
		key = s.h.Sum(s.sum[:0])
		s.h.Reset()
	}
	// Word-wise fill, then fold the (short) key in: the block is mostly pad.
	fill := uint64(x) * 0x0101010101010101
	for i := 0; i < len(s.pad); i += 8 {
		binary.LittleEndian.PutUint64(s.pad[i:], fill)
	}
	for i, b := range key {
		s.pad[i] ^= b
	}
	s.h.Write(s.pad[:])
}

// outerTag finishes a tag: the hash holds the outer key block, inner is the
// inner digest.
func (s *hashScratch) outerTag(inner []byte) MAC {
	s.h.Write(inner)
	var m MAC
	copy(m[:], s.h.Sum(s.sum[:0]))
	return m
}

// sessionKey is one direction of a pairwise session key as the key tables
// hold it: the raw key (shipped in new-key messages), its epoch, and the
// precomputed HMAC states. Immutable once built, so snapshots share it.
type sessionKey struct {
	key   []byte
	epoch uint32
	// inner and outer are marshaled SHA-256 states after the ipad and opad
	// key blocks.
	inner, outer []byte
}

func newSessionKey(key []byte, epoch uint32) *sessionKey {
	s := getScratch()
	defer hashPool.Put(s)
	state := func(x byte) []byte {
		s.absorbPad(key, x)
		// sha256's MarshalBinary cannot fail.
		b, _ := s.h.(encoding.BinaryMarshaler).MarshalBinary()
		return b
	}
	return &sessionKey{key: key, epoch: epoch, inner: state(0x36), outer: state(0x5c)}
}

// keyEpoch returns the raw key and its epoch; a missing entry reads as
// (nil, 0).
func (k *sessionKey) keyEpoch() ([]byte, uint32) {
	if k == nil {
		return nil, 0
	}
	return k.key, k.epoch
}

// tag computes the MAC of payload on scratch s: two state restores, no
// key-block compressions, no allocation.
func (k *sessionKey) tag(s *hashScratch, payload []byte) MAC {
	// The states were produced by MarshalBinary on this same hash type, so
	// restoring them cannot fail.
	_ = s.restore.UnmarshalBinary(k.inner)
	s.h.Write(payload)
	inner := s.h.Sum(s.inner[:0])
	_ = s.restore.UnmarshalBinary(k.outer)
	return s.outerTag(inner)
}

// mac is tag on a scratch of its own, for callers computing a single tag.
func (k *sessionKey) mac(payload []byte) MAC {
	s := getScratch()
	m := k.tag(s, payload)
	hashPool.Put(s)
	return m
}

// verify reports whether m is the MAC of payload under k. The comparison is
// constant-time (unnecessary in the simulation but cheap).
func (k *sessionKey) verify(payload []byte, m MAC) bool {
	want := k.mac(payload)
	return subtle.ConstantTimeCompare(want[:], m[:]) == 1
}

// ComputeMAC computes the MAC of payload under key: the one-shot form for
// callers that hold a bare key. It derives the key blocks on the scratch
// hash each call; the key store's tables avoid even that.
func ComputeMAC(key []byte, payload []byte) MAC {
	s := getScratch()
	s.absorbPad(key, 0x36)
	s.h.Write(payload)
	inner := s.h.Sum(s.inner[:0])
	s.absorbPad(key, 0x5c)
	m := s.outerTag(inner)
	hashPool.Put(s)
	return m
}
