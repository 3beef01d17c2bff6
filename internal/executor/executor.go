// Package executor is stage 3 of the replica pipeline: a single ordered
// goroutine that exclusively owns the pieces of replica state touched by
// request execution — the service (and through it the statemachine.Region),
// the hierarchical checkpoint.Manager (§5.3), and the last-reply cache
// (§2.4.4's last-rep) — fed by the protocol core through an ordered command
// channel.
//
// The cost it moves off the event loop is the tail of the per-batch
// critical path: Service.Execute for every request in the batch, the
// copy-on-write page digesting of a checkpoint epoch, and reply
// construction. With those inline, agreement for batch n+1 stalls behind
// execution of batch n; with the executor, a committed batch's
// execution+digest+reply work overlaps the core's prepare/commit processing
// for subsequent batches — the overlap §5.1.2's tentative execution was
// designed to exploit, now realized across cores:
//
//	event loop (protocol state) -> ordered commands -> executor
//	     (Region + checkpoint.Manager + reply cache) -> replies to egress
//
// Ownership rules:
//
//   - The executor goroutine is the ONLY goroutine that touches the
//     Region, the checkpoint manager, or the reply cache while the
//     pipeline runs. The protocol core keeps lightweight mirrors (last
//     replied timestamp per client, own checkpoint digests) that it updates
//     from command dispatch and from checkpoint Events reported back.
//   - Rare paths that must observe or mutate execution state from the core
//     (view-change rollback of tentative executions, state-transfer page
//     install, proactive-recovery state checking, test inspection) run as
//     Sync rendezvous commands: the core blocks until the closure has run
//     on the executor goroutine, which both drains every earlier command
//     and excludes concurrent execution.
//   - The executor never blocks on the core: checkpoint digests are
//     reported through a non-blocking callback, and replies are sealed and
//     handed to the thread-safe transport on the executor goroutine itself
//     (internal/egress). The core MAY block on a full command queue
//     (counted in Stats.Stalls); because the executor always drains, this
//     cannot deadlock.
//
// Command order equals dispatch order, so the executor observes exactly the
// interleaving the serial path would have produced: batches execute in
// sequence-number order, a read-only request runs after the prefix it was
// queued behind, and a rollback rendezvous reverts precisely the tentative
// batches dispatched before it.
package executor

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/statemachine"
)

// Outbound transmits one finished reply. Implementations must be safe to
// call from the executor goroutine concurrently with event-loop sends: the
// replica's implementation seals through its egress stage into the
// thread-safe transport and touches no protocol state.
type Outbound interface {
	SendReply(rep *message.Reply)
}

// Entry is one request of a batch command. Pre carries a result the core
// precomputed on the event loop (recovery requests, whose execution is pure
// protocol bookkeeping and never touches the Region); for ordinary requests
// the executor runs Service.Execute.
type Entry struct {
	Req    *message.Request
	Pre    []byte
	HasPre bool
}

// Final marks one tentative cached reply as committed (§5.1.2).
type Final struct {
	Client    message.NodeID
	Timestamp uint64
}

// Event reports one taken checkpoint back to the protocol core, which
// broadcasts the digest or defers it until the batch commits (§5.1.2). The
// epoch echoes the core's execution epoch at dispatch: the core bumps it
// whenever a rendezvous rebuilds execution state (rollback, state transfer,
// recovery reset), so reports for snapshots destroyed in between are
// recognized as stale and dropped.
type Event struct {
	Seq    message.Seq
	Digest crypto.Digest
	Epoch  uint64
}

// Config assembles an executor. Service, Ckpt, and Cache hand over
// ownership: after New, the caller may touch them only inside Sync
// closures.
type Config struct {
	// Self is the replica id stamped into replies.
	Self message.NodeID
	// DigestReplies applies §5.1.1: only the designated replier sends the
	// full result.
	DigestReplies bool
	// SmallResult is the §5.1.1 threshold below which results are always
	// sent in full.
	SmallResult int
	// QueueCap bounds the command queue (0 means 8192); a full queue
	// blocks the dispatcher (counted in Stats.Stalls), it never drops.
	QueueCap int

	Service statemachine.Service // bftlint:owner=executor
	Ckpt    *checkpoint.Manager  // bftlint:owner=executor
	Cache   *ReplyCache          // bftlint:owner=executor
	Out     Outbound
	// Report delivers checkpoint Events; it must not block (the replica
	// appends to an unbounded queue drained by the event loop).
	Report func(Event)
}

// Stats is a live snapshot of the executor's counters.
type Stats struct {
	// Depth is the instantaneous command-queue depth.
	Depth int
	// Stalls counts dispatches that found the queue full and blocked.
	Stalls uint64
	// PagesCopied / PagesDigested surface the checkpoint manager's
	// counters (updated after every command, so reads never touch the
	// manager off the executor goroutine).
	PagesCopied   uint64
	PagesDigested uint64
	// CkptTime is the cumulative wall time spent taking checkpoints
	// (copy-on-write folding + hierarchical digesting).
	CkptTime time.Duration
}

type cmdKind uint8

const (
	cmdBatch cmdKind = iota
	cmdReadOnly
	cmdResend
	cmdFinalize
	cmdCkpt
	cmdDiscard
	cmdSync
)

type cmd struct {
	kind      cmdKind
	seq       message.Seq
	view      message.View
	nondet    []byte
	tentative bool
	entries   []Entry
	req       *message.Request
	client    message.NodeID
	finals    []Final
	epoch     uint64
	fn        func()
	done      chan struct{}
}

// Executor is the stage-3 goroutine plus its command queue.
type Executor struct {
	cfg  Config
	cmds chan cmd
	quit chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	stalls        atomic.Uint64
	pagesCopied   atomic.Uint64
	pagesDigested atomic.Uint64
	ckptNanos     atomic.Int64
}

// New starts the executor goroutine. Ownership of cfg.Service, cfg.Ckpt,
// and cfg.Cache transfers to it.
func New(cfg Config) *Executor {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 8192
	}
	e := &Executor{
		cfg:  cfg,
		cmds: make(chan cmd, cfg.QueueCap),
		quit: make(chan struct{}),
	}
	e.wg.Add(1)
	go e.run()
	return e
}

// Close stops the executor goroutine; commands still queued are dropped.
// Call only after every dispatcher has stopped.
func (e *Executor) Close() {
	e.once.Do(func() {
		close(e.quit)
		e.wg.Wait()
	})
}

// Stats returns a snapshot of the counters; safe from any goroutine.
func (e *Executor) Stats() Stats {
	return Stats{
		Depth:         len(e.cmds),
		Stalls:        e.stalls.Load(),
		PagesCopied:   e.pagesCopied.Load(),
		PagesDigested: e.pagesDigested.Load(),
		CkptTime:      time.Duration(e.ckptNanos.Load()),
	}
}

// Cache returns the executor-owned reply cache. Touch it only inside Sync
// closures (or before Start/after Close).
func (e *Executor) Cache() *ReplyCache { return e.cfg.Cache }

// ---------------------------------------------------------------------------
// Dispatch (called from the protocol core)
// ---------------------------------------------------------------------------

// submit enqueues one command in dispatch order. A full queue blocks rather
// than drops: commands mutate state, so losing one would fork the replica
// from the group. The executor always drains, so blocking here cannot
// deadlock (the executor never waits on the core).
func (e *Executor) submit(c cmd) {
	select {
	case e.cmds <- c:
		return
	default:
	}
	e.stalls.Add(1)
	select {
	case e.cmds <- c:
	case <-e.quit:
	}
}

// ExecBatch executes the batch assigned to seq: each entry in order, reply
// built, cached, and sent. Entries must already be filtered by the core's
// exactly-once mirror; the executor re-checks against the authoritative
// cache as defense in depth.
func (e *Executor) ExecBatch(seq message.Seq, view message.View, nondet []byte,
	tentative bool, entries []Entry) {
	e.submit(cmd{kind: cmdBatch, seq: seq, view: view, nondet: nondet,
		tentative: tentative, entries: entries})
}

// ExecReadOnly answers one read-only request against the current state
// (§5.1.3). The core dispatches it only once its quiescence conditions
// hold; command order guarantees the executor state reflects exactly the
// prefix the core observed.
func (e *Executor) ExecReadOnly(req *message.Request, view message.View) {
	e.submit(cmd{kind: cmdReadOnly, req: req, view: view})
}

// ResendReply retransmits the cached reply for client, if any (§2.3.3
// exactly-once).
func (e *Executor) ResendReply(client message.NodeID, view message.View) {
	e.submit(cmd{kind: cmdResend, client: client, view: view})
}

// Finalize upgrades tentative cached replies to committed (§5.1.2).
func (e *Executor) Finalize(finals []Final) {
	e.submit(cmd{kind: cmdFinalize, finals: finals})
}

// TakeCheckpoint snapshots the state for seq and reports the combined
// digest back through cfg.Report, stamped with epoch.
func (e *Executor) TakeCheckpoint(seq message.Seq, epoch uint64) {
	e.submit(cmd{kind: cmdCkpt, seq: seq, epoch: epoch})
}

// Discard drops snapshots below seq (log truncation, §2.3.4).
func (e *Executor) Discard(seq message.Seq) {
	e.submit(cmd{kind: cmdDiscard, seq: seq})
}

// Sync runs fn on the executor goroutine after every earlier command and
// blocks until it returns. While fn runs the dispatching goroutine is
// blocked, so fn may touch both executor-owned and caller-owned state.
// Never call Sync from inside a Sync closure (the executor cannot process
// the nested command).
//
// bftlint:rendezvous
func (e *Executor) Sync(fn func()) {
	done := make(chan struct{}, 1)
	e.submit(cmd{kind: cmdSync, fn: fn, done: done})
	select {
	case <-done:
	case <-e.quit:
	}
}

// ---------------------------------------------------------------------------
// The executor goroutine
// ---------------------------------------------------------------------------

// run is the stage-3 goroutine: the sole owner of the service, checkpoint
// manager, and reply cache while the pipeline runs.
//
// bftlint:entrypoint=executor
func (e *Executor) run() {
	defer e.wg.Done()
	for {
		select {
		case <-e.quit:
			return
		case c := <-e.cmds:
			e.handle(c)
			// Publish the manager's counters so Stats never reads the
			// manager off this goroutine.
			e.pagesCopied.Store(e.cfg.Ckpt.PagesCopied)
			e.pagesDigested.Store(e.cfg.Ckpt.PagesDigested)
		}
	}
}

func (e *Executor) handle(c cmd) {
	switch c.kind {
	case cmdBatch:
		for i := range c.entries {
			e.execOne(&c.entries[i], c.nondet, c.tentative, c.view)
		}
	case cmdReadOnly:
		result := e.cfg.Service.Execute(c.req.Client, c.req.Op, nil)
		e.sendReply(c.req, result, false, c.view)
	case cmdResend:
		e.resendCached(c.client, c.view)
	case cmdFinalize:
		for _, f := range c.finals {
			e.cfg.Cache.MarkFinal(f.Client, f.Timestamp)
		}
	case cmdCkpt:
		t0 := time.Now()
		extra := e.cfg.Cache.Marshal()
		snap := e.cfg.Ckpt.Take(c.seq, extra)
		e.ckptNanos.Add(int64(time.Since(t0)))
		e.cfg.Report(Event{
			Seq:    c.seq,
			Digest: checkpoint.CombinedDigest(snap.Root, snap.Extra),
			Epoch:  c.epoch,
		})
	case cmdDiscard:
		e.cfg.Ckpt.DiscardBefore(c.seq)
	case cmdSync:
		c.fn()
		c.done <- struct{}{}
	}
}

// execOne applies a single request and sends its reply — the stage-3 half
// of the serial path's execOne.
func (e *Executor) execOne(ent *Entry, nondet []byte, tentative bool, view message.View) {
	req := ent.Req
	client := req.Client
	if cr := e.cfg.Cache.Get(client); cr != nil && req.Timestamp <= cr.Timestamp {
		if req.Timestamp == cr.Timestamp {
			e.resendCached(client, view)
		}
		return
	}
	var result []byte
	if ent.HasPre {
		result = ent.Pre
	} else {
		result = e.cfg.Service.Execute(client, req.Op, nondet)
	}
	e.cfg.Cache.Set(client, req.Timestamp, result, tentative)
	e.sendReply(req, result, tentative, view)
}

// sendReply builds and transmits the reply for an executed request.
func (e *Executor) sendReply(req *message.Request, result []byte, tentative bool,
	view message.View) {
	e.cfg.Out.SendReply(BuildReply(e.cfg.Self, e.cfg.DigestReplies,
		e.cfg.SmallResult, view, req, result, tentative))
}

// resendCached retransmits a cached reply.
func (e *Executor) resendCached(client message.NodeID, view message.View) {
	if cr := e.cfg.Cache.Get(client); cr != nil {
		e.cfg.Out.SendReply(CachedReply(e.cfg.Self, view, client, cr))
	}
}

// BuildReply constructs the reply for an executed request, applying the
// §5.1.1 digest-reply rule: everyone carries the full result when the
// optimization is off, the result is small, or this replica is the
// designated replier; otherwise only the digest ships. Replies must match
// byte for byte across replicas for the client's certificate, and a group
// may legitimately mix inline and staged replicas (ExecPipeline adapts to
// core count) — so both execution paths share this one builder.
func BuildReply(self message.NodeID, digestReplies bool, smallResult int,
	view message.View, req *message.Request, result []byte, tentative bool) *message.Reply {
	full := !digestReplies ||
		req.Replier == self || req.Replier == message.NoNode ||
		len(result) <= smallResult
	rep := &message.Reply{
		View:         view,
		Timestamp:    req.Timestamp,
		Client:       req.Client,
		Replica:      self,
		Tentative:    tentative,
		HasResult:    true,
		Result:       result,
		ResultDigest: crypto.DigestOf(result),
	}
	if !full {
		rep.HasResult = false
		rep.Result = nil
	}
	return rep
}

// CachedReply builds the retransmission of a cached reply — always full:
// the client asked again because it lacks a certificate.
func CachedReply(self message.NodeID, view message.View, client message.NodeID,
	cr *Cached) *message.Reply {
	return &message.Reply{
		View:         view,
		Timestamp:    cr.Timestamp,
		Client:       client,
		Replica:      self,
		Tentative:    cr.Tentative,
		HasResult:    true,
		Result:       cr.Result,
		ResultDigest: crypto.DigestOf(cr.Result),
	}
}
