package pbft

import (
	"repro/internal/crypto"
	"repro/internal/egress"
	"repro/internal/message"
)

// sealer is the state-free authentication core of the send path, shared by
// the serial helpers on the event loop and the egress pipeline workers —
// the outbound twin of verifier. It owns no protocol state: it reads the
// copy-on-write key-store snapshots and the immutable mode/group size, so
// Seal is safe to call from any goroutine concurrently with key refresh.
//
// Seal never writes into the message: the computed trailer goes straight
// into the wire buffer (message.AppendAuth), so protocol objects stay
// exclusively event-loop-owned even while workers encode them.
type sealer struct {
	mode Mode
	n    int
	ks   *crypto.KeyStore
	kp   crypto.KeyPair
}

// Generation implements egress.Sealer.
func (s *sealer) Generation() uint64 { return s.ks.Generation() }

// Seal implements egress.Sealer: it appends m's body to buf, computes the
// trailer the kind calls for over exactly those bytes, and appends it. The
// returned generation stamps MAC-based trailers with the key snapshot they
// were computed under; signatures return egress.NoGeneration since key
// rotation cannot invalidate them.
//
// Annotated as a worker entry point because egress workers reach it through
// the egress.Sealer interface, invisible to the bftowner call graph.
//
// bftlint:entrypoint=worker
func (s *sealer) Seal(buf []byte, kind egress.Kind, dst message.NodeID,
	m message.Message) ([]byte, uint64) {
	start := len(buf)
	buf = message.AppendPayload(buf, m)
	payload := buf[start:]

	var a message.Auth
	// The vector only lives until AppendAuth copies it into buf, so it is
	// built in this frame: no per-multicast MAC slice for the groups we run.
	var macs [crypto.SmallGroup]crypto.MAC
	gen := egress.NoGeneration
	switch {
	case s.mode == ModePK || kind == egress.Sign:
		a = message.Auth{Kind: message.AuthSig, Sig: s.kp.Sign(payload)}
	case kind == egress.Vector:
		gen = s.ks.Generation()
		a = message.Auth{
			Kind:   message.AuthVector,
			Vector: s.ks.AppendAuthenticator(macs[:0], s.n, payload),
		}
	case kind == egress.Point:
		// Install first-contact keys BEFORE reading the generation: the
		// install publishes a new snapshot, and stamping the pre-install
		// generation would spuriously re-seal every MAC job in flight.
		s.ensurePeerKeys(dst)
		gen = s.ks.Generation()
		a = message.Auth{
			Kind: message.AuthMAC,
			MAC:  s.ks.ComputePointMAC(uint32(dst), payload),
		}
	}
	return message.AppendAuth(buf, &a), gen
}

// ensurePeerKeys lazily installs the administrator-distributed initial keys
// for a principal first seen now (clients appear dynamically; replies to a
// new client may be sealed on a worker before the event loop saw it).
func (s *sealer) ensurePeerKeys(peer message.NodeID) {
	if k, _ := s.ks.OutKey(uint32(peer)); k == nil {
		s.ks.InstallInitial(uint32(peer))
	}
}
