// Package ingress is the receive stage of the replication library: it
// decodes and authenticates one raw datagram on the goroutine that delivers
// it and hands the typed message, with its verdict, to a sink.
//
// The caller is the transport's per-endpoint receive goroutine (simnet's
// dispatch goroutine, udpnet's read loop), so a datagram runs to completion
// — decode, MAC or signature check, hand-off — without a queue or a
// goroutine switch of its own, the way the thesis's replica (§6.1) receives
// and authenticates inside one event-driven loop:
//
//	transport receive goroutine -> Submit (decode + verify) -> sink
//
// Verification reads only the directory and immutable key-store snapshots,
// so it is safe there while the event loop owns protocol state; the sink is
// the one hand-off left (a replica's enqueues the verdict for its event
// loop, a client's folds the reply into its certificate). Per-sender order
// is the transport's delivery order.
//
// Prepares and commits, the all-to-all votes of the normal case, and the
// replies a client collects into its certificate are decoded into targets
// the stage owns and lent to the sink for one call (see Sink), so receiving
// a vote or a reply allocates nothing.
package ingress

import (
	"sync/atomic"

	"repro/internal/message"
)

// Verifier authenticates a decoded message. Verify runs on the transport's
// receive goroutine, concurrently with the consumer. The returned tag is
// opaque to the stage and travels with the verdict to the Sink — consumers
// use it to stamp the conditions a verdict was computed under (e.g. the
// key-store generation, so the event loop can detect that a key refresh
// invalidated a verdict in flight and re-verify).
type Verifier interface {
	Verify(m message.Message) (ok bool, tag uint64)
}

// VerifierFunc adapts a function to the Verifier interface.
type VerifierFunc func(m message.Message) (bool, uint64)

// Verify implements Verifier.
func (f VerifierFunc) Verify(m message.Message) (bool, uint64) { return f(m) }

// Sink receives each decoded message together with its authentication
// verdict and the verifier's tag, on the goroutine that called Submit.
// Messages that fail to decode never reach it; messages that decode but
// fail authentication arrive with verified=false so the consumer can count
// them or apply fallbacks (the unauthenticated view-change rule of §3.2.4).
//
// A *message.Prepare, *message.Commit or *message.Reply is lent, not given:
// the stage decodes every vote and every reply into one target of each
// type that it owns, and the next Submit overwrites it. The sink may read
// the message until it returns and must not keep m, or anything pointing
// into its struct (a decoded MAC vector lives there), past that; a consumer
// copies the fields it needs. message.Wire(m) is the received datagram, and
// the byte fields (a reply's Result) are views of it, which do outlive the
// call. Every other type is a fresh message the sink may keep.
type Sink func(m message.Message, verified bool, tag uint64)

// Stats are the stage's counters (atomic; safe to read live).
type Stats struct {
	// Rejected counts datagrams refused because the stage was closed.
	Rejected uint64
	// DecodeFailed counts datagrams that did not parse as any message.
	DecodeFailed uint64
	// AuthFailed counts messages whose authenticator did not verify.
	AuthFailed uint64
}

// Pipeline is the synchronous decode-and-verify stage.
type Pipeline struct {
	verify Verifier
	sink   Sink
	closed atomic.Bool

	// prep and commit are the decode targets of the two all-to-all votes
	// (§2.3.3), rep that of replies (§2.3.2); each is lent to the sink for
	// one call; see Sink.
	prep   message.Prepare
	commit message.Commit
	rep    message.Reply

	rejected     atomic.Uint64
	decodeFailed atomic.Uint64
	authFailed   atomic.Uint64
}

// New returns a stage that authenticates with v and delivers to sink. The
// sink runs on whichever goroutine calls Submit — the transport's receive
// goroutine — so it must confine itself to state safe there (channels,
// atomics, its own locks). workers and queueCap are unused: the stage has
// no pool and no queue of its own.
//
// bftlint:runs=worker
func New(workers, queueCap int, v Verifier, sink Sink) *Pipeline {
	return &Pipeline{verify: v, sink: sink}
}

// Submit decodes and authenticates one raw datagram and passes the result
// to the sink before returning. It reports whether the datagram reached
// the sink: false once the stage is closed and for datagrams that do not
// decode.
//
// Submit has a single caller: the goroutine the transport delivers the
// endpoint's datagrams on (every transport delivers them on one), because
// the targets it decodes into are the stage's own. The datagram must
// not change after Submit returns, as a decoded message's byte fields and
// message.Wire alias it.
func (p *Pipeline) Submit(raw []byte) bool {
	if p.closed.Load() {
		p.rejected.Add(1)
		return false
	}
	m, err := p.decode(raw)
	if err != nil {
		p.decodeFailed.Add(1)
		return false
	}
	ok, tag := p.verify.Verify(m)
	if !ok {
		p.authFailed.Add(1)
	}
	p.sink(m, ok, tag)
	return true
}

// decode decodes the two vote types and replies into the stage's own
// targets and every other type through message.Unmarshal.
func (p *Pipeline) decode(raw []byte) (message.Message, error) {
	if len(raw) > 0 {
		switch message.Type(raw[0]) {
		case message.TPrepare:
			return &p.prep, p.prep.Decode(raw)
		case message.TCommit:
			return &p.commit, p.commit.Decode(raw)
		case message.TReply:
			return &p.rep, p.rep.Decode(raw)
		}
	}
	return message.Unmarshal(raw)
}

// Close makes every later Submit refuse its datagram. A Submit already
// running may still reach the sink. Close is idempotent.
func (p *Pipeline) Close() { p.closed.Store(true) }

// Stats returns a snapshot of the counters.
func (p *Pipeline) Stats() Stats {
	return Stats{
		Rejected:     p.rejected.Load(),
		DecodeFailed: p.decodeFailed.Load(),
		AuthFailed:   p.authFailed.Load(),
	}
}
