// Package wirefix exercises bftwire with the PR 4 bug shape: a metadata
// message whose LastMod field rode the wire while the digest covered only
// the part digests, letting a Byzantine replica vary it under a valid
// digest and wedge the fetcher. It also covers encode/decode drift, fields
// that vanish on the wire, both exemption kinds, and an in-line
// bftlint:allow acknowledgment.
package wirefix

type writer struct{ b []byte }

func (w *writer) u64(v uint64)   {}
func (w *writer) bytes(p []byte) {}

type reader struct{ b []byte }

func (r *reader) u64() uint64   { return 0 }
func (r *reader) bytes() []byte { return nil }

type digest [16]byte

func digestOfU64(vs ...uint64) digest { return digest{} }

// meta mimics the historical MetaData shape: the digest covers Seq only,
// while LastMod rides the wire uncovered.
type meta struct {
	Seq     uint64
	LastMod uint64 // want `rides the wire but no digest computation covers it`
	Legacy  uint64 // want `referenced by marshalBody but not unmarshalBody`
	Skipped uint64 // want `referenced by neither marshalBody nor unmarshalBody`
	// Cached is derived state, legitimately absent from the wire format.
	Cached []byte // bftlint:nowire=recomputed-on-decode
	// Hint has an exemption with no reason token: the audit rejects it.
	Hint uint64 // bftlint:nodigest= // want `needs a reason token`
	// Spare carries a properly audited exemption.
	Spare uint64 // bftlint:nodigest=routing-advice
	// Epoch rides the wire outside the digest, acknowledged in-line.
	Epoch uint64 // bftlint:allow=bftwire
}

func (m *meta) Digest() digest { return digestOfU64(m.Seq) }

func (m *meta) marshalBody(w *writer) {
	w.u64(m.Seq)
	w.u64(m.LastMod)
	w.u64(m.Legacy) // encoded but never decoded: drift
	w.u64(m.Hint)
	w.u64(m.Spare)
	w.u64(m.Epoch)
}

func (m *meta) unmarshalBody(r *reader) {
	m.Seq = r.u64()
	m.LastMod = r.u64()
	m.Hint = r.u64()
	m.Spare = r.u64()
	m.Epoch = r.u64()
}

// covered is fully symmetric with a digest over the whole payload: the
// receiver escaping into payloadOf marks every field covered.
type covered struct {
	A uint64
	B uint64
}

func payloadOf(m *covered) []byte { return nil }

func digestOf(p []byte) digest { return digest{} }

func (m *covered) Digest() digest { return digestOf(payloadOf(m)) }

func (m *covered) marshalBody(w *writer) {
	w.u64(m.A)
	w.u64(m.B)
}

func (m *covered) unmarshalBody(r *reader) {
	m.A = r.u64()
	m.B = r.u64()
}
