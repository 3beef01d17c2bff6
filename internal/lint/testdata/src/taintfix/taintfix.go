// Package taintfix exercises bfttaint: integers decoded from the wire are
// attacker-controlled, and using one as an index, allocation size, loop
// bound, or inserted map key without a bounds check is a finding. The
// shapes mirror the codec's sliceLen discipline and the statefetch
// hierarchy walk.
package taintfix

type reader struct{ b []byte }

func (r *reader) u64() uint64 { return 0 }

// fetch mimics an inbound state-transfer request: having an unmarshalBody
// method marks it as a wire type, so its integer fields are untrusted.
type fetch struct {
	Level uint64
	Index uint64
	Count uint64
	From  uint64
}

func (m *fetch) unmarshalBody(r *reader) {
	m.Level = r.u64()
	m.Index = r.u64()
	m.Count = r.u64()
	m.From = r.u64()
}

type table struct {
	levels  [8][]byte
	seen    map[uint64]bool
	replies map[uint64]int
}

func (t *table) lookup(m *fetch) []byte {
	return t.levels[m.Level] // want `used as an index without a bounds check`
}

// lookupChecked bounds the level first: the comparison guards the index.
func (t *table) lookupChecked(m *fetch) []byte {
	if m.Level >= uint64(len(t.levels)) {
		return nil
	}
	return t.levels[m.Level]
}

func (t *table) alloc(m *fetch) []byte {
	return make([]byte, m.Count) // want `used as an allocation size`
}

// allocClamped uses a min clamp at the sink.
func (t *table) allocClamped(m *fetch) []byte {
	return make([]byte, min(m.Count, 4096))
}

func (t *table) slice(m *fetch, b []byte) []byte {
	return b[:m.Index] // want `used as a slice bound`
}

func (t *table) record(m *fetch) {
	t.seen[m.From] = true // want `inserted as a map key without validation`
}

// recordChecked validates the claimed ID against the membership bound.
func (t *table) recordChecked(m *fetch, n uint64) {
	if m.From >= n {
		return
	}
	t.seen[m.From] = true
}

// recordVetted is bounded elsewhere; the suppression records the audit.
func (t *table) recordVetted(m *fetch) {
	t.replies[m.From]++ // bftlint:allow=bfttaint bounded-by-directory-auth
}

func (t *table) walk(m *fetch) int {
	s := 0
	for i := uint64(0); i < m.Count; i++ { // want `bounds this loop`
		s++
	}
	return s
}

// walkChecked clamps the trip count before looping.
func (t *table) walkChecked(m *fetch) int {
	if m.Count > 64 {
		return 0
	}
	s := 0
	for i := uint64(0); i < m.Count; i++ {
		s++
	}
	return s
}

// laundered shows taint propagating through a local.
func (t *table) laundered(m *fetch) []byte {
	n := m.Count + 1
	return make([]byte, n) // want `used as an allocation size`
}
