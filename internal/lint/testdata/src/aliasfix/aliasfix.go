// Package aliasfix exercises bftalias with the PR 2 qset-aliasing bug
// shape: view-change handler state that stored a slice taken from an
// inbound message, which a later in-place sort then mutated under the
// sender's feet.
package aliasfix

// dv is a (digest, view) entry, as in message.DV.
type dv struct{ digest, view int }

// qinfo is a per-sequence entry of a view-change message.
type qinfo struct {
	seq     int
	entries []dv
}

// viewchange mimics an inbound protocol message: the handler may keep the
// pointer, but not slice memory reachable from it.
type viewchange struct {
	q       []qinfo
	replica int
}

// vcstate outlives every handler call that populates it.
//
// bftlint:longlived
type vcstate struct {
	qset  map[int][]dv
	last  *viewchange
	note  []byte
	bound int
}

// onViewChange reproduces the historical bug: the message's entries slice
// lands in the long-lived qset without a copy, so the bounded-space
// truncation later mutates the sender's message in place.
func (s *vcstate) onViewChange(m *viewchange, raw []byte) {
	s.qset[m.q[0].seq] = m.q[0].entries // want `caller-provided slice/map stored into long-lived vcstate\.qset`
	s.note = raw                        // want `stored into long-lived vcstate\.note`
	s.last = m                          // pointer handoff: ok (messages are owned after dispatch)
	s.bound = m.replica                 // scalar: ok

	// The correct form: deep-copy before storing.
	cp := append([]dv(nil), m.q[0].entries...)
	s.qset[m.q[0].seq] = cp

	// Locals carrying caller memory are tracked through assignment.
	entries := m.q[0].entries
	s.qset[0] = entries // want `stored into long-lived vcstate\.qset`

	// An acknowledged alias: the caller is known to discard the message.
	s.note = raw[2:] // bftlint:allow=bftalias the ingress path hands over the datagram
}

// freshResult shows call results counting as fresh memory.
func (s *vcstate) freshResult(m *viewchange) {
	s.qset[1] = clone(m.q[0].entries) // fresh: ok
}

func clone(in []dv) []dv { return append([]dv(nil), in...) }
