// Package executor is the replica's execution stage: Service.Execute for
// every request of an ordered batch, the last-reply cache (§2.4.4's
// last-rep) and reply construction (§5.1.1), and checkpoint digesting
// (§5.3). It runs to completion on the caller's goroutine, which in a
// replica is the event loop: the paper's replica executes a batch as soon as
// it commits, or prepares under tentative execution (§5.1.2), inside the one
// automaton that owns all protocol state (thesis §6.1). The stage has no
// goroutine and no queue, so the service Region, the checkpoint manager and
// the reply cache it is handed belong to the event loop like every other
// piece of replica state, and the caller may also touch them directly.
package executor

import (
	"time"

	"repro/internal/checkpoint"
	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/statemachine"
)

// Outbound transmits one finished reply. The replica's implementation seals
// it through its egress stage.
//
// rep is lent for the one call: it is the executor's own reply, which the
// next reply overwrites. SendReply may read it, or change it before sealing
// it, until it returns, and must not keep rep past that; Result aliases the
// reply cache and the service's result, so it is never written in place.
type Outbound interface {
	SendReply(rep *message.Reply)
}

// Entry is one request of a batch. Pre carries a result the caller
// precomputed (recovery requests, whose execution is pure protocol
// bookkeeping and never touches the Region); for ordinary requests the
// executor runs Service.Execute.
type Entry struct {
	Req    *message.Request
	Pre    []byte
	HasPre bool
	// Executed is set by ExecBatch when the request ran; it stays false
	// for a request the reply cache shows was already executed (§2.3.3).
	Executed bool
}

// Event is unused: TakeCheckpoint returns the digest. The type remains for
// callers that still pass a Config.Report.
type Event struct{}

// Config assembles an executor. Service, Ckpt and Cache are used on the
// caller's goroutine only.
type Config struct {
	// Self is the replica id stamped into replies.
	Self message.NodeID
	// DigestReplies applies §5.1.1: only the designated replier sends the
	// full result.
	DigestReplies bool
	// SmallResult is the §5.1.1 threshold below which results are always
	// sent in full.
	SmallResult int

	Service statemachine.Service // bftlint:owner=eventloop
	Ckpt    *checkpoint.Manager  // bftlint:owner=eventloop
	Cache   *ReplyCache          // bftlint:owner=eventloop
	Out     Outbound
	// Report is ignored; TakeCheckpoint returns the digest.
	Report func(Event)
}

// Stats is a snapshot of the executor's checkpoint counters.
type Stats struct {
	// PagesCopied / PagesDigested surface the checkpoint manager's
	// copy-on-write and digesting counters.
	PagesCopied   uint64
	PagesDigested uint64
	// CkptTime is the cumulative wall time spent taking checkpoints
	// (copy-on-write folding + hierarchical digesting).
	CkptTime time.Duration
}

// Executor executes requests and takes checkpoints on the caller's
// goroutine.
type Executor struct {
	cfg      Config
	ckptTime time.Duration
	// rep is the reply every send builds and lends to Config.Out.
	rep message.Reply
}

// New returns an executor over cfg's service, checkpoint manager and reply
// cache.
func New(cfg Config) *Executor { return &Executor{cfg: cfg} }

// Close is a no-op: the executor holds no goroutine or resource.
func (e *Executor) Close() {}

// Stats returns the checkpoint counters.
func (e *Executor) Stats() Stats {
	return Stats{
		PagesCopied:   e.cfg.Ckpt.PagesCopied,
		PagesDigested: e.cfg.Ckpt.PagesDigested,
		CkptTime:      e.ckptTime,
	}
}

// Cache returns the reply cache.
func (e *Executor) Cache() *ReplyCache { return e.cfg.Cache }

// ExecBatch executes the batch assigned to seq: each entry in order, its
// reply built, cached and sent, and its Executed flag set. An entry whose
// timestamp the reply cache already holds is not executed again: the cached
// reply is resent for an equal timestamp and nothing is sent for an older
// one (§2.3.3 exactly-once).
func (e *Executor) ExecBatch(seq message.Seq, view message.View, nondet []byte,
	tentative bool, entries []Entry) {
	for i := range entries {
		ent := &entries[i]
		req := ent.Req
		client := req.Client
		if cr := e.cfg.Cache.Get(client); cr != nil && req.Timestamp <= cr.Timestamp {
			if req.Timestamp == cr.Timestamp {
				e.ResendReply(client, view)
			}
			continue
		}
		result := ent.Pre
		if !ent.HasPre {
			result = e.cfg.Service.Execute(client, req.Op, nondet)
		}
		// The cache keeps the canonical (timestamp, result) for
		// retransmissions; the envelope (view, tentative) is rebuilt when
		// resending, so the checkpointed cache is identical across replicas.
		e.cfg.Cache.Set(client, req.Timestamp, result, tentative)
		e.sendReply(req, result, tentative, view)
		ent.Executed = true
	}
}

// ExecReadOnly answers one read-only request against the current state
// (§5.1.3). The caller decides when the state is quiescent enough.
func (e *Executor) ExecReadOnly(req *message.Request, view message.View) {
	e.sendReply(req, e.cfg.Service.Execute(req.Client, req.Op, nil), false, view)
}

// ResendReply retransmits the cached reply for client, if any (§2.3.3
// exactly-once). A retransmission is always full: the client asked again
// because it lacks a certificate.
func (e *Executor) ResendReply(client message.NodeID, view message.View) {
	cr := e.cfg.Cache.Get(client)
	if cr == nil {
		return
	}
	e.send(view, cr.Timestamp, client, cr.Tentative, cr.Result, true)
}

// Finalize marks the cached replies of a committed batch's requests as no
// longer tentative (§5.1.2). Nil entries (null requests) are skipped.
func (e *Executor) Finalize(reqs []*message.Request) {
	for _, req := range reqs {
		if req != nil {
			e.cfg.Cache.MarkFinal(req.Client, req.Timestamp)
		}
	}
}

// TakeCheckpoint snapshots the state for seq and returns the checkpoint
// digest: the partition-tree root combined with the reply cache. The epoch
// argument is ignored.
func (e *Executor) TakeCheckpoint(seq message.Seq, _ uint64) crypto.Digest {
	t0 := time.Now()
	snap := e.cfg.Ckpt.Take(seq, e.cfg.Cache.Marshal())
	e.ckptTime += time.Since(t0)
	return checkpoint.CombinedDigest(snap.Root, snap.Extra)
}

// Discard drops snapshots below seq (log truncation, §2.3.4).
func (e *Executor) Discard(seq message.Seq) { e.cfg.Ckpt.DiscardBefore(seq) }

// Sync calls fn. Every earlier call has already run to completion.
func (e *Executor) Sync(fn func()) { fn() }

// sendReply builds and transmits the reply for an executed request, applying
// the §5.1.1 digest-reply rule: everyone carries the full result when the
// optimization is off, the result is small, or this replica is the
// designated replier; otherwise only the digest ships.
func (e *Executor) sendReply(req *message.Request, result []byte, tentative bool,
	view message.View) {
	full := !e.cfg.DigestReplies || req.Replier == e.cfg.Self || req.Replier == message.NoNode ||
		len(result) <= e.cfg.SmallResult
	e.send(view, req.Timestamp, req.Client, tentative, result, full)
}

// send builds the reply in the executor's own target, the result itself
// only when full, and lends it to Config.Out.
func (e *Executor) send(view message.View, ts uint64, client message.NodeID,
	tentative bool, result []byte, full bool) {
	e.rep = message.Reply{
		View:         view,
		Timestamp:    ts,
		Client:       client,
		Replica:      e.cfg.Self,
		Tentative:    tentative,
		HasResult:    full,
		ResultDigest: crypto.DigestOf(result),
	}
	if full {
		e.rep.Result = result
	}
	e.cfg.Out.SendReply(&e.rep)
}
