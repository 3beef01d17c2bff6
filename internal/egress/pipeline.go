// Package egress is the send stage of the replication library: it seals an
// outbound message (encodes the body and appends its authenticator) into a
// pooled wire buffer on the caller's goroutine and hands the buffer straight
// to the transport. It mirrors internal/ingress, which decodes and verifies
// on the receive side.
//
// The caller is the replica's event loop or a client's invoking goroutine. Sealing there keeps the send path one step,
// as in the thesis's replica loop (§6.1): the vector of n MACs of §5.2 is
// computed and the datagrams leave in call order, with no queue between
// them. A key refresh can therefore never land between sealing and
// transmission. The sealer only reads the message body and the
// copy-on-write key-store snapshots; the trailer goes into the wire buffer,
// never back into the message object.
//
// Wire buffers come from a pool and are handed to the transport through
// transport.Multicaster when the substrate implements it: the transport
// coalesces the n datagrams of one multicast and releases the buffer for
// reuse once the bytes are out. Both substrates release before the send
// returns, so in steady state a send takes its buffer from the pool.
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

// wireBuf holds one wire buffer. Both pools store *wireBuf, so moving a
// buffer in or out of a pool boxes nothing.
type wireBuf struct{ b []byte }

var (
	// wirePool holds buffers the transport released. When it is empty a
	// fresh buffer is attached to a recycled holder; a transport without
	// the Multicaster extension never releases, and costs one allocation
	// per send.
	wirePool = sync.Pool{New: func() any {
		w := holderPool.Get().(*wireBuf)
		w.b = make([]byte, 0, 512)
		return w
	}}
	// holderPool holds the empty holders of buffers in flight.
	holderPool = sync.Pool{New: func() any { return new(wireBuf) }}
)

// takeWire removes a buffer from the pool, recycling its holder.
func takeWire() []byte {
	w := wirePool.Get().(*wireBuf)
	b := w.b
	w.b = nil
	holderPool.Put(w)
	return b[:0]
}

// releaseWire returns a transport-released buffer to the pool.
func releaseWire(b []byte) {
	w := holderPool.Get().(*wireBuf)
	w.b = b
	wirePool.Put(w)
}

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
	mc    transport.Multicaster // trans, if it implements the extension

	closed   atomic.Bool
	rejected atomic.Uint64
}

// New returns a stage that seals with s and transmits through t. workers
// and queueCap are unused: the stage has no pool and no queue of its own.
func New(workers, queueCap int, s Sealer, t transport.Transport) *Pipeline {
	p := &Pipeline{seal: s, trans: t}
	p.mc, _ = t.(transport.Multicaster)
	return p
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
	wire, _ := p.seal.Seal(takeWire(), kind, message.NoNode, m)
	if p.mc == nil {
		p.trans.Multicast(dsts, wire)
		return true
	}
	p.mc.MulticastOwned(dsts, wire, releaseWire)
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
	wire, _ := p.seal.Seal(takeWire(), kind, dst, m)
	if p.mc == nil {
		p.trans.Send(dst, wire)
		return true
	}
	p.mc.SendOwned(dst, wire, releaseWire)
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

// MulticastRaw transmits already-encoded bytes to every id in dsts.
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
