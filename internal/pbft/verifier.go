package pbft

import (
	"repro/internal/crypto"
	"repro/internal/message"
)

// verifier is the state-free authentication core the ingress stage runs on
// the transport's receive goroutine and the event loop runs when it
// re-verifies. It owns no protocol state: it reads the directory
// (RW-locked), the key store (copy-on-write snapshots), and the immutable
// mode, so Verify is safe to call from any goroutine concurrently with key
// refresh and client registration.
type verifier struct {
	mode Mode
	dir  *Directory
	ks   *crypto.KeyStore
}

// ensurePeerKeys lazily installs the administrator-distributed initial keys
// for a principal first seen now (clients appear dynamically). The key store
// is internally synchronized, so any goroutine may call it.
func ensurePeerKeys(ks *crypto.KeyStore, peer message.NodeID) {
	if k, _ := ks.OutKey(uint32(peer)); k == nil {
		ks.InstallInitial(uint32(peer))
	}
}

// verifySig checks a signature trailer against the directory.
func (v *verifier) verifySig(m message.Message) bool {
	a := m.AuthTrailer()
	if a.Kind != message.AuthSig {
		return false
	}
	pub, ok := v.dir.PublicKey(m.Sender())
	if !ok {
		return false
	}
	return crypto.Verify(pub, m.Payload(), a.Sig)
}

// Verify authenticates an inbound message according to mode and type.
// Annotated as a worker entry point because the ingress stage reaches it on
// the transport's receive goroutine through interface dispatch, which the
// bftowner call graph cannot see; the annotation closes that hole.
//
// bftlint:entrypoint=worker
func (v *verifier) Verify(m message.Message) bool {
	sender := m.Sender()
	a := m.AuthTrailer()

	switch m.(type) {
	case *message.Data, *message.BatchBody:
		// Content-addressed: verified against known digests (§5.3.2).
		return true
	case *message.NewKey:
		return v.verifySig(m)
	}

	if req, ok := m.(*message.Request); ok && req.Recovery() {
		return v.verifySig(m) // recovery requests are co-processor signed
	}

	if v.mode == ModePK {
		return v.verifySig(m)
	}

	switch a.Kind {
	case message.AuthVector:
		ensurePeerKeys(v.ks, sender)
		return v.ks.CheckAuthenticator(uint32(sender), m.Payload(), a.Vector)
	case message.AuthMAC:
		ensurePeerKeys(v.ks, sender)
		return v.ks.CheckPointMAC(uint32(sender), m.Payload(), a.MAC)
	default:
		return false
	}
}

// VerifyTagged verifies m and stamps the verdict with the key generation
// it was computed under (loaded before the snapshot, so a rotation racing
// the verification is always detected as a generation change). It is the
// replica's ingress.Verifier; the event loop compares the tag against the
// current generation on dispatch and re-verifies when keys rotated in
// between — the §4.3.2 stale-key rule.
// Nothing in the trailer can forge its way past this: the tag is computed
// locally, never from attacker-controlled fields.
//
// bftlint:entrypoint=worker
func (v *verifier) VerifyTagged(m message.Message) (bool, uint64) {
	gen := v.ks.Generation()
	return v.Verify(m), gen
}
