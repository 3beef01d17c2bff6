package crypto

import (
	"maps"
	"sync"
	"sync/atomic"
)

// keySnapshot is one immutable generation of a KeyStore's session-key tables.
// Readers grab the current snapshot with a single atomic load and work on it
// without locks; writers build a new snapshot under KeyStore.mu and publish
// it atomically (copy-on-write). An entry is a key, its epoch and its
// precomputed MAC states in one immutable object, so whatever generation a
// reader sees, the three belong together.
type keySnapshot struct {
	// in[p] authenticates messages p sends to us; we chose it, and its
	// epoch is bumped when we refresh.
	in map[uint32]*sessionKey
	// out[p] authenticates messages we send to p; p chose it.
	out map[uint32]*sessionKey
}

func newKeySnapshot() *keySnapshot {
	return &keySnapshot{
		in:  make(map[uint32]*sessionKey),
		out: make(map[uint32]*sessionKey),
	}
}

// clone copies the tables (entries themselves are never mutated in place).
func (s *keySnapshot) clone() *keySnapshot {
	return &keySnapshot{in: maps.Clone(s.in), out: maps.Clone(s.out)}
}

// KeyStore holds the symmetric session keys one principal shares with every
// other principal, together with the epoch bookkeeping needed for the
// authentication-freshness rules of Section 4.3.1.
//
// Key direction follows the thesis: the key used for messages from i to j is
// chosen by the RECEIVER j and announced to i in a new-key message. So a
// node's "in" keys are the ones it generated (peers use them to send to it)
// and its "out" keys are the latest ones each peer announced.
//
// KeyStore is safe for concurrent use and optimized for read-mostly access:
// the transport receive goroutines verify MACs, and the event loop and
// executor seal them, against an immutable snapshot (one atomic pointer
// load, no lock), while key refresh from the replica event loop publishes a
// new snapshot copy-on-write. A verification that
// races a refresh sees either the old or the new generation atomically,
// never a torn mix — the epoch freshness check then decides acceptance.
type KeyStore struct {
	self uint32
	mu   sync.Mutex // serializes writers
	snap atomic.Pointer[keySnapshot]
	// gen counts published generations. A verifier that records the
	// generation alongside a verdict can later detect that keys rotated in
	// between and re-verify — the §4.3.2 stale-key defense for verdicts
	// that cross a refresh (the epoch field in an authenticator trailer is
	// attacker-controlled and cannot be trusted for this).
	gen atomic.Uint64
}

// NewKeyStore creates an empty key store for principal self.
func NewKeyStore(self uint32) *KeyStore {
	ks := &KeyStore{self: self}
	ks.snap.Store(newKeySnapshot())
	return ks
}

// mutate runs fn on a private clone of the current snapshot and, if fn
// reports a change, publishes the clone as a new generation. This is the
// ONLY publish path: the snap.Store + gen.Add pairing is the correctness
// core of the copy-on-write scheme and must not be duplicated. Callers
// hold no other KeyStore locks.
func (ks *KeyStore) mutate(fn func(*keySnapshot) bool) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	s := ks.snap.Load().clone()
	if !fn(s) {
		return
	}
	ks.snap.Store(s)
	ks.gen.Add(1)
}

// Generation returns the current key generation. It changes exactly when a
// mutation publishes a new snapshot, so a reader that saw the same value
// before and after an operation worked against current keys throughout.
func (ks *KeyStore) Generation() uint64 { return ks.gen.Load() }

// InstallInitial seeds the pairwise keys between self and peer
// deterministically, as if an offline administrator had distributed them.
// Both ends derive the same value, so clusters come up with working keys
// before any new-key message is exchanged. Re-installing over present keys
// is a true no-op (no new generation), so concurrent lazy installs from
// receive goroutines can neither roll an epoch back nor churn the
// generation counter.
func (ks *KeyStore) InstallInitial(peer uint32) {
	ks.mutate(func(s *keySnapshot) bool {
		_, haveIn := s.in[peer]
		_, haveOut := s.out[peer]
		if !haveIn {
			// Key for peer->self traffic (chosen, conceptually, by self).
			s.in[peer] = newSessionKey(DeriveKey("session", uint64(peer), uint64(ks.self)), 0)
		}
		if !haveOut {
			// Key for self->peer traffic (chosen by peer).
			s.out[peer] = newSessionKey(DeriveKey("session", uint64(ks.self), uint64(peer)), 0)
		}
		return !haveIn || !haveOut
	})
}

// RefreshIn generates a fresh key for messages from peer to self and returns
// it so it can be shipped to peer in a new-key message. epoch must be the
// sender's new epoch number.
func (ks *KeyStore) RefreshIn(peer uint32, epoch uint32, seed uint64) []byte {
	k := newSessionKey(DeriveKey("refresh", uint64(peer), uint64(ks.self), uint64(epoch), seed), epoch)
	ks.mutate(func(s *keySnapshot) bool {
		s.in[peer] = k
		return true
	})
	return k.key
}

// SetOut installs the key peer announced for self->peer traffic.
func (ks *KeyStore) SetOut(peer uint32, key []byte, epoch uint32) {
	k := newSessionKey(key, epoch)
	ks.mutate(func(s *keySnapshot) bool {
		s.out[peer] = k
		return true
	})
}

// OutKey returns the key and epoch for sending to peer.
func (ks *KeyStore) OutKey(peer uint32) ([]byte, uint32) {
	return ks.snap.Load().out[peer].keyEpoch()
}

// InKey returns the key and epoch expected on traffic from peer.
func (ks *KeyStore) InKey(peer uint32) ([]byte, uint32) {
	return ks.snap.Load().in[peer].keyEpoch()
}

// MakeAuthenticator computes the vector of MACs for a payload multicast by
// self to principals [0, n). Entry self is left zero.
func (ks *KeyStore) MakeAuthenticator(n int, payload []byte) Authenticator {
	return ks.AppendAuthenticator(nil, n, payload)
}

// AppendAuthenticator is MakeAuthenticator with caller-supplied storage: the
// vector is appended to macs[:0] (reallocated only if its capacity is below
// n), so a sealer that encodes the trailer straight into a wire buffer can
// keep the vector on its stack.
func (ks *KeyStore) AppendAuthenticator(macs []MAC, n int, payload []byte) Authenticator {
	s := ks.snap.Load()
	a := Authenticator{MACs: append(macs[:0], make([]MAC, n)...)}
	h := getScratch()
	for p := 0; p < n; p++ {
		if uint32(p) == ks.self {
			continue
		}
		k := s.out[uint32(p)]
		if k == nil {
			continue
		}
		a.MACs[p] = k.tag(h, payload)
		// All out keys share the sender's view of epochs; report the max so
		// receivers with refreshed keys can detect staleness.
		if k.epoch > a.Epoch {
			a.Epoch = k.epoch
		}
	}
	hashPool.Put(h)
	return a
}

// CheckAuthenticator verifies the MAC destined to self inside an
// authenticator sent by from, enforcing epoch freshness: tags computed with
// keys older than the current in-epoch for that sender are rejected, which
// is how recovered replicas shed messages forged with stolen keys
// (Section 4.3.2).
func (ks *KeyStore) CheckAuthenticator(from uint32, payload []byte, a Authenticator) bool {
	k := ks.snap.Load().in[from]
	if k == nil {
		return false
	}
	if int(ks.self) >= len(a.MACs) {
		return false
	}
	if a.Epoch < k.epoch {
		return false
	}
	return k.verify(payload, a.MACs[ks.self])
}

// ComputePointMAC computes the single MAC for a point-to-point message from
// self to peer.
func (ks *KeyStore) ComputePointMAC(peer uint32, payload []byte) MAC {
	k := ks.snap.Load().out[peer]
	if k == nil {
		return MAC{}
	}
	return k.mac(payload)
}

// CheckPointMAC verifies a point-to-point MAC from peer to self.
func (ks *KeyStore) CheckPointMAC(peer uint32, payload []byte, m MAC) bool {
	k := ks.snap.Load().in[peer]
	if k == nil {
		return false
	}
	return k.verify(payload, m)
}
