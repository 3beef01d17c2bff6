// Package crypto provides the cryptographic substrate for the BFT library:
// message digests, MACs and authenticators (the vector-of-MACs construction
// of Section 3.2.1 of the thesis), public-key signatures used by BFT-PK and
// by the proactive-recovery key exchange, and the incremental (AdHash-style)
// digests used by the hierarchical checkpoint partition tree (Section 5.3).
//
// The paper used MD5 digests, UMAC32 MACs and Rabin-Williams signatures; we
// substitute SHA-256, truncated HMAC-SHA-256 and Ed25519 from the Go standard
// library. The property the protocol depends on — MACs being orders of
// magnitude cheaper than signatures, digests in between — is preserved.
//
// That property is only worth having if a MAC costs what its compressions
// cost. Hash states are therefore never allocated per call: digests and tags
// run on pooled scratch states, and the key store keeps, next to every
// session key, the two HMAC key-block states derived when the key was
// installed (mac.go), so a tag is two state restores plus the payload.
package crypto

import (
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
)

// DigestSize is the size in bytes of a message or state digest.
const DigestSize = 32

// MACSize is the size in bytes of a single (truncated) MAC tag.
// The thesis used 8-byte UMAC32 tags (a 4-byte tag plus a 4-byte nonce);
// we truncate HMAC-SHA-256 to the same size.
const MACSize = 8

// SigSize is the size in bytes of a signature (Ed25519).
const SigSize = ed25519.SignatureSize

// Digest is a collision-resistant hash of a message or of service state.
type Digest [DigestSize]byte

// ZeroDigest is the digest value used for the special null request that view
// changes use to fill sequence-number gaps (Section 2.3.5).
var ZeroDigest Digest

// IsZero reports whether d is the all-zero digest.
func (d Digest) IsZero() bool { return d == ZeroDigest }

// String returns an abbreviated hex form for logs.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:4]) }

// DigestOf hashes the concatenation of the given byte slices.
func DigestOf(parts ...[]byte) Digest {
	if len(parts) == 1 {
		return sha256.Sum256(parts[0])
	}
	h := NewHasher()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum()
}

// Hasher streams bytes into one digest on a pooled hash state, for callers
// whose input is not already a list of slices. Sum ends its life.
type Hasher struct{ s *hashScratch }

// NewHasher returns an empty Hasher.
func NewHasher() Hasher {
	s := getScratch()
	s.h.Reset()
	return Hasher{s}
}

// Write absorbs p.
func (h Hasher) Write(p []byte) { h.s.h.Write(p) }

// WriteDigest absorbs d. (Passing d[:] to Write would move d to the heap:
// the bytes reach the hash through an interface.)
func (h Hasher) WriteDigest(d Digest) {
	h.s.sum = d
	h.s.h.Write(h.s.sum[:])
}

// Sum returns the digest and releases the state; h must not be used again.
func (h Hasher) Sum() Digest {
	var d Digest
	copy(d[:], h.s.h.Sum(h.s.sum[:0]))
	hashPool.Put(h.s)
	return d
}

// DigestOfU64 hashes a sequence of uint64 values followed by byte slices.
// It is used where the digest must cover fixed header fields.
func DigestOfU64(nums []uint64, parts ...[]byte) Digest {
	h := NewHasher()
	buf := h.s.pad[:8]
	for _, n := range nums {
		binary.LittleEndian.PutUint64(buf, n)
		h.Write(buf)
	}
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum()
}

// MAC is a truncated message authentication tag for one sender/receiver pair.
type MAC [MACSize]byte

// SmallGroup is the largest group size for which the hot paths keep an
// authenticator's MACs in fixed inline storage (a decoded trailer, a sealer's
// stack frame) instead of a per-message slice; every group we run fits.
const SmallGroup = 8

// Authenticator is a vector of MACs, one per replica, attached to messages
// that are multicast to the whole replica group (Section 3.2.1). Entry i is
// the MAC computed with the key the sender shares with replica i. The entry
// for the sender itself is left zero.
type Authenticator struct {
	// Epoch is the sender's key epoch; receivers reject authenticators from
	// epochs older than the freshness horizon (Section 4.3.1).
	Epoch uint32
	MACs  []MAC
}

// KeyPair is a public-key signature key pair. In BFT-PR the private key
// lives inside the simulated secure co-processor.
type KeyPair struct {
	Public  ed25519.PublicKey
	private ed25519.PrivateKey
}

// GenerateKeyPair creates a key pair from a deterministic seed. Production
// code would use crypto/rand; the simulation wants reproducibility.
func GenerateKeyPair(seed []byte) KeyPair {
	h := sha256.Sum256(seed)
	priv := ed25519.NewKeyFromSeed(h[:])
	return KeyPair{Public: priv.Public().(ed25519.PublicKey), private: priv}
}

// Sign signs payload with the private key.
func (kp KeyPair) Sign(payload []byte) []byte {
	return ed25519.Sign(kp.private, payload)
}

// Verify reports whether sig is a valid signature of payload under pub.
func Verify(pub ed25519.PublicKey, payload, sig []byte) bool {
	if len(sig) != ed25519.SignatureSize || len(pub) != ed25519.PublicKeySize {
		return false
	}
	return ed25519.Verify(pub, payload, sig)
}

// DeriveKey derives a deterministic symmetric key from a label and a set of
// integers. Used to set up initial session keys and by the simulated secure
// co-processor to generate fresh keys.
func DeriveKey(label string, nums ...uint64) []byte {
	h := sha256.New()
	h.Write([]byte(label))
	var buf [8]byte
	for _, n := range nums {
		binary.LittleEndian.PutUint64(buf[:], n)
		h.Write(buf[:])
	}
	return h.Sum(nil)[:16]
}
