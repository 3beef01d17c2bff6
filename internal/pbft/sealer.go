package pbft

import (
	"repro/internal/crypto"
	"repro/internal/egress"
	"repro/internal/message"
)

// sealer is the state-free authentication core of the send path — the
// outbound twin of verifier. It owns no protocol state: it reads the
// copy-on-write key-store snapshots and the immutable mode/group size, so
// Seal is safe on the event loop, the executor, and a client's invoking
// goroutine, concurrently with key refresh.
//
// Seal never writes into the message: the computed trailer goes straight
// into the wire buffer (message.AppendAuth), so a stored protocol object
// never carries the trailer of one particular send.
type sealer struct {
	mode Mode
	n    int
	ks   *crypto.KeyStore
	kp   crypto.KeyPair
}

// Seal implements egress.Sealer: it appends m's body to buf, computes the
// trailer the kind calls for over exactly those bytes, and appends it.
func (s *sealer) Seal(buf []byte, kind egress.Kind, dst message.NodeID,
	m message.Message) ([]byte, uint64) {
	start := len(buf)
	buf = message.AppendPayload(buf, m)
	payload := buf[start:]

	var a message.Auth
	// The vector only lives until AppendAuth copies it into buf, so it is
	// built in this frame: no per-multicast MAC slice for the groups we run.
	var macs [crypto.SmallGroup]crypto.MAC
	switch {
	case s.mode == ModePK || kind == egress.Sign:
		a = message.Auth{Kind: message.AuthSig, Sig: s.kp.Sign(payload)}
	case kind == egress.Vector:
		a = message.Auth{
			Kind:   message.AuthVector,
			Vector: s.ks.AppendAuthenticator(macs[:0], s.n, payload),
		}
	case kind == egress.Point:
		ensurePeerKeys(s.ks, dst)
		a = message.Auth{
			Kind: message.AuthMAC,
			MAC:  s.ks.ComputePointMAC(uint32(dst), payload),
		}
	}
	return message.AppendAuth(buf, &a), 0
}
