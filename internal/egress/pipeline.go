// Package egress is the send stage of the replication library: it seals an
// outbound message (encodes the body and appends its authenticator) into a
// pooled wire buffer on the caller's goroutine and hands the buffer straight
// to the transport. It mirrors internal/ingress, which decodes and verifies
// on the receive side.
//
// The caller is the replica's event loop or a client's invoking goroutine.
// Sealing there keeps the send path one step, as in the thesis's replica
// loop (§6.1): the vector of n MACs of §5.2 is computed and the datagrams
// leave in call order, with no queue between them. A key refresh can
// therefore never land between sealing and transmission. The sealer only
// reads the message body and the copy-on-write key-store snapshots; the
// trailer goes into the wire buffer, never back into the message object.
//
// Wire buffers come from a pool. A transport keeps nothing of a payload
// once Send or Multicast returns (the transport.Transport contract), so the
// stage puts the buffer back in the pool right after the call, and in
// steady state a send allocates no wire buffer.
package egress

import (
	"sync"
	"sync/atomic"

	"repro/internal/message"
	"repro/internal/transport"
)

// Kind selects how a message is authenticated when it is sealed.
type Kind uint8

// Seal kinds.
const (
	// Vector seals with a group authenticator: the vector of per-replica
	// MACs of §5.2 (or a signature in PK mode).
	Vector Kind = iota
	// Point seals with the single point-to-point MAC for the destination
	// (or a signature in PK mode).
	Point
	// Sign always seals with a signature (new-key and recovery traffic,
	// §4.3.1: these must be verifiable regardless of session-key state).
	Sign
)

// Sealer produces the authenticated wire encoding of one message. Seal
// appends the complete wire message (body followed by trailer) to buf and
// returns the extended buffer; it must not write into m, and must be safe
// to call from several goroutines at once. Its second result is unused by
// the stage.
type Sealer interface {
	Seal(buf []byte, kind Kind, dst message.NodeID, m message.Message) (wire []byte, gen uint64)
}

// wireBuf holds one wire buffer. The pool stores *wireBuf, so moving a
// buffer in or out of it boxes nothing.
type wireBuf struct{ b []byte }

// wirePool holds wire buffers between sends.
var wirePool = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 512)} }}

// Stats are the stage's counters (atomic; safe to read live).
type Stats struct {
	// Rejected counts sends refused because the stage was closed. The
	// datagram is simply never transmitted, like one lost on the wire.
	Rejected uint64
}

// Pipeline is the synchronous seal-and-transmit stage.
type Pipeline struct {
	seal  Sealer
	trans transport.Transport

	closed   atomic.Bool
	rejected atomic.Uint64
}

// New returns a stage that seals with s and transmits through t. workers
// and queueCap are unused: the stage has no pool and no queue of its own.
func New(workers, queueCap int, s Sealer, t transport.Transport) *Pipeline {
	return &Pipeline{seal: s, trans: t}
}

// Multicast seals m per kind and transmits it to every id in dsts before
// returning. It reports false, sending nothing, once the stage is closed.
// It does not keep m: once it returns, the caller may reuse the message
// for the next send.
//
// bftlint:send
func (p *Pipeline) Multicast(dsts []message.NodeID, m message.Message, kind Kind) bool {
	if p.refuse() {
		return false
	}
	w := wirePool.Get().(*wireBuf)
	w.b, _ = p.seal.Seal(w.b[:0], kind, message.NoNode, m)
	p.trans.Multicast(dsts, w.b)
	wirePool.Put(w)
	return true
}

// Send seals m per kind and transmits it to dst. Like Multicast, it does
// not keep m past its return.
//
// bftlint:send
func (p *Pipeline) Send(dst message.NodeID, m message.Message, kind Kind) bool {
	if p.refuse() {
		return false
	}
	w := wirePool.Get().(*wireBuf)
	w.b, _ = p.seal.Seal(w.b[:0], kind, dst, m)
	p.trans.Send(dst, w.b)
	wirePool.Put(w)
	return true
}

// SendRaw transmits already-encoded bytes to dst (retransmissions that keep
// their original authenticators). The caller keeps ownership of wire.
//
// bftlint:send
func (p *Pipeline) SendRaw(dst message.NodeID, wire []byte) bool {
	if p.refuse() {
		return false
	}
	p.trans.Send(dst, wire)
	return true
}

// MulticastRaw transmits already-encoded bytes to every id in dsts. Like
// SendRaw, it leaves wire with the caller.
//
// bftlint:send
func (p *Pipeline) MulticastRaw(dsts []message.NodeID, wire []byte) bool {
	if p.refuse() {
		return false
	}
	p.trans.Multicast(dsts, wire)
	return true
}

// refuse reports whether the stage is closed, counting the refusal.
func (p *Pipeline) refuse() bool {
	if p.closed.Load() {
		p.rejected.Add(1)
		return true
	}
	return false
}

// Close makes every later send refuse. A send already running may still
// reach the transport. Close is idempotent.
func (p *Pipeline) Close() { p.closed.Store(true) }

// Stats returns a snapshot of the counters.
func (p *Pipeline) Stats() Stats {
	return Stats{Rejected: p.rejected.Load()}
}
