package pbft

// Stage-3 executor wiring: when Config.Opt.ExecPipeline is on, the replica
// hands ownership of the service Region, the checkpoint manager, and the
// reply cache to a single ordered executor goroutine (internal/executor)
// and the event loop keeps only the protocol state plus two mirrors:
//
//   - repMarks:  last replied (timestamp, tentative) per client, for the
//     §2.3.3 exactly-once checks the event loop performs on every request;
//   - myCkpts:   this replica's own checkpoint digests by sequence number,
//     for the checkpoint/view-change protocol reads that the serial path
//     served straight from the manager.
//
// Commands flow core -> executor in dispatch order; checkpoint digests flow
// back as events through an unbounded queue the event loop drains, so the
// executor never blocks on the core. The rare paths that must observe or
// mutate execution state from the core — view-change rollback, state
// transfer, proactive-recovery state checking, test inspection — run as
// execSync rendezvous: the closure executes on the executor goroutine after
// every earlier command while the event loop waits, which is exactly the
// mutual exclusion the serial path got for free from single-threading.

import (
	"sync"

	"repro/internal/crypto"
	"repro/internal/egress"
	"repro/internal/executor"
	"repro/internal/message"
)

// replyMark is the event-loop mirror of one reply-cache entry: enough for
// exactly-once decisions without touching the executor-owned cache.
type replyMark struct {
	ts        uint64
	tentative bool
}

// execState is the replica's staged-executor bookkeeping. The mirrors and
// the dispatch handle belong to the event loop; only the event queue below
// is written from the executor goroutine.
//
// bftlint:owner=eventloop
type execState struct {
	ex *executor.Executor

	// epoch stamps TakeCheckpoint commands; it is bumped whenever a
	// rendezvous rebuilds execution state (rollback, state transfer), so
	// checkpoint events reported for snapshots destroyed in between are
	// recognized as stale and dropped.
	epoch uint64

	// myCkpts mirrors the manager's retained snapshots: seq -> combined
	// digest of every checkpoint this replica has taken (and been told
	// about via the digest event). Pruned in step with DiscardBefore.
	myCkpts map[message.Seq]crypto.Digest

	// repMarks is the exactly-once mirror (see replyMark).
	repMarks map[message.NodeID]replyMark

	// Unbounded event queue from the executor goroutine; evC is a
	// 1-buffered doorbell the event loop selects on.
	evMu sync.Mutex       // bftlint:owner=shared
	evQ  []executor.Event // bftlint:owner=shared (guarded by evMu)
	evC  chan struct{}    // bftlint:owner=shared
}

// startExecutor builds the stage-3 executor and hands it the service,
// checkpoint manager, and reply cache. Called from NewReplica after the
// transport and egress stage exist (replies go out through them).
func (r *Replica) startExecutor() {
	r.xs = &execState{
		myCkpts:  map[message.Seq]crypto.Digest{0: ckptDigest(r.ckpt.RootDigest(), nil)},
		repMarks: make(map[message.NodeID]replyMark),
		evC:      make(chan struct{}, 1),
	}
	r.xs.ex = executor.New(executor.Config{
		Self:          r.id,
		DigestReplies: r.cfg.Opt.DigestReplies,
		SmallResult:   smallResultThreshold,
		QueueCap:      r.cfg.InboxCap,
		Service:       r.service,
		Ckpt:          r.ckpt,
		Cache:         r.replyCache,
		Out:           (*execSender)(r),
		Report:        r.reportExecEvent,
	})
}

// staged reports whether the stage-3 executor owns execution state.
func (r *Replica) staged() bool { return r.xs != nil }

// execSync runs fn with exclusive access to the Region, the checkpoint
// manager, and the reply cache: inline on the serial path, as an executor
// rendezvous on the staged path (the event loop blocks, so fn may touch
// protocol state too). Never nest execSync calls.
//
// bftlint:rendezvous
func (r *Replica) execSync(fn func()) {
	if r.xs == nil {
		fn()
		return
	}
	r.xs.ex.Sync(fn)
}

// ---------------------------------------------------------------------------
// Reply-cache mirror
// ---------------------------------------------------------------------------

// lastReplied returns the timestamp of the last reply sent to client, if
// any — the event loop's exactly-once check (§2.3.3).
func (r *Replica) lastReplied(client message.NodeID) (uint64, bool) {
	if r.staged() {
		m, ok := r.xs.repMarks[client]
		return m.ts, ok
	}
	if cr := r.replyCache.Get(client); cr != nil {
		return cr.Timestamp, true
	}
	return 0, false
}

// setRepliesFromCheckpoint installs a checkpointed reply cache (rollback,
// state transfer). Must run inside execSync on the staged path: the cache
// belongs to the executor, and the mirror to the (blocked) event loop.
func (r *Replica) setRepliesFromCheckpoint(extra []byte) {
	r.replyCache.Install(extra)
	if r.staged() {
		marks := executor.Marks(extra)
		r.xs.repMarks = make(map[message.NodeID]replyMark, len(marks))
		for _, mk := range marks {
			r.xs.repMarks[mk.Client] = replyMark{ts: mk.Timestamp}
		}
	}
}

// ---------------------------------------------------------------------------
// Batch dispatch
// ---------------------------------------------------------------------------

// dispatchBatch is the staged twin of the serial execOne loop: it performs
// the event-loop half of execution (log bookkeeping, exactly-once mirror,
// recovery-request protocol effects) and ships the state-machine half to
// the executor as one ordered command.
func (r *Replica) dispatchBatch(pp *message.PrePrepare, seq message.Seq, tentative bool) {
	var entries []executor.Entry
	var recReqs []*message.Request
	for _, req := range r.batchRequests(pp) {
		if req == nil {
			continue // null request: no-op (§2.3.5)
		}
		client := req.Client
		d := req.Digest()
		r.log.MarkRequestExecuted(d, seq)
		r.dequeueExecuted(client, d)
		if mark, ok := r.xs.repMarks[client]; ok && req.Timestamp <= mark.ts {
			if req.Timestamp == mark.ts {
				r.xs.ex.ResendReply(client, r.view)
			}
			continue
		}
		ent := executor.Entry{Req: req}
		if req.Recovery() {
			// Recovery requests are pure protocol bookkeeping: the result
			// (the sequence number) is computed here and their side
			// effects run on the event loop after dispatch (§4.3.2).
			recReqs = append(recReqs, req)
			ent.Pre = recoveryResult(seq)
			ent.HasPre = true
		}
		// repMarks is the staged-path reply cache: one entry per client that
		// ever executed, by design; the batch passed requestAuthOK at accept.
		r.xs.repMarks[client] = replyMark{ts: req.Timestamp, tentative: tentative} // bftlint:allow=bfttaint
		r.metrics.RequestsExecuted++
		entries = append(entries, ent)
	}
	if len(entries) > 0 {
		r.xs.ex.ExecBatch(seq, r.view, pp.NonDet, tentative, entries)
	}
	for _, req := range recReqs {
		r.recoveryRequestEffects(req, seq)
	}
}

// ---------------------------------------------------------------------------
// Checkpoint digest mirror
// ---------------------------------------------------------------------------

// reportExecEvent is the executor's non-blocking report callback: append to
// the unbounded queue and ring the doorbell. It runs on the executor
// goroutine and may touch only the shared queue fields.
//
// bftlint:entrypoint=executor
func (r *Replica) reportExecEvent(ev executor.Event) {
	r.xs.evMu.Lock()
	r.xs.evQ = append(r.xs.evQ, ev)
	r.xs.evMu.Unlock()
	select {
	case r.xs.evC <- struct{}{}:
	default:
	}
}

// takeExecEvents drains the event queue (event loop only).
func (r *Replica) takeExecEvents() []executor.Event {
	r.xs.evMu.Lock()
	evs := r.xs.evQ
	r.xs.evQ = nil
	r.xs.evMu.Unlock()
	return evs
}

// syncExecEvents makes the checkpoint-digest mirror current: a rendezvous
// drains every queued command (so all dispatched checkpoints are taken),
// then the reports produced so far are consumed. The view-change paths use
// it before reading the mirror — the serial path always saw its own
// checkpoints immediately, and a new-view or view-change decision based on
// a lagging mirror could start a state transfer for a checkpoint this
// replica already holds, or under-report C in its view-change message.
func (r *Replica) syncExecEvents() {
	if !r.staged() {
		return
	}
	r.execSync(func() {})
	for _, ev := range r.takeExecEvents() {
		r.onCkptTaken(ev)
	}
}

// onCkptTaken consumes one checkpoint-digest event: record it in the
// mirror, then broadcast (committed) or defer to pendingCkpts (tentative),
// per §5.1.2.
func (r *Replica) onCkptTaken(ev executor.Event) {
	if ev.Epoch != r.xs.epoch {
		return // snapshot destroyed by a rollback/transfer since dispatch
	}
	if ev.Seq <= r.log.Low() {
		return // already obsolete (a new-view proof stabilized past it)
	}
	r.xs.myCkpts[ev.Seq] = ev.Digest
	if ev.Seq <= r.lastCommitted {
		r.broadcastCheckpoint(ev.Seq, ev.Digest)
	} else {
		r.pendingCkpts[ev.Seq] = ev.Digest
	}
}

// ownCkptDigest returns this replica's digest for the checkpoint at seq,
// if taken (and, on the staged path, reported back).
func (r *Replica) ownCkptDigest(seq message.Seq) (crypto.Digest, bool) {
	if r.staged() {
		d, ok := r.xs.myCkpts[seq]
		return d, ok
	}
	snap, ok := r.ckpt.Snapshot(seq)
	if !ok {
		return crypto.Digest{}, false
	}
	return ckptDigest(snap.Root, snap.Extra), true
}

// latestCkptSeq returns the newest retained checkpoint's sequence number.
func (r *Replica) latestCkptSeq() message.Seq {
	if !r.staged() {
		return r.ckpt.Latest().Seq
	}
	var max message.Seq
	for s := range r.xs.myCkpts {
		if s > max {
			max = s
		}
	}
	return max
}

// ownCkptList returns every retained checkpoint at or above the low water
// mark, ascending — the C component of a view-change message.
func (r *Replica) ownCkptList() []message.CkptInfo {
	low := r.log.Low()
	if !r.staged() {
		var out []message.CkptInfo
		for s := low; ; {
			if snap, ok := r.ckpt.Snapshot(s); ok {
				out = append(out, message.CkptInfo{Seq: s, Digest: ckptDigest(snap.Root, snap.Extra)})
			}
			s += r.cfg.CheckpointInterval
			if s > r.ckpt.Latest().Seq {
				break
			}
		}
		return out
	}
	seqs := make([]message.Seq, 0, len(r.xs.myCkpts))
	for s := range r.xs.myCkpts {
		if s >= low {
			seqs = append(seqs, s)
		}
	}
	for i := 1; i < len(seqs); i++ {
		for j := i; j > 0 && seqs[j] < seqs[j-1]; j-- {
			seqs[j], seqs[j-1] = seqs[j-1], seqs[j]
		}
	}
	out := make([]message.CkptInfo, 0, len(seqs))
	for _, s := range seqs {
		out = append(out, message.CkptInfo{Seq: s, Digest: r.xs.myCkpts[s]})
	}
	return out
}

// discardCkptsBefore truncates checkpoint history at a stable checkpoint,
// mirroring checkpoint.Manager.DiscardBefore (drop < seq, always keep the
// newest) in the digest mirror.
func (r *Replica) discardCkptsBefore(seq message.Seq) {
	if !r.staged() {
		r.ckpt.DiscardBefore(seq)
		return
	}
	r.xs.ex.Discard(seq)
	newest := r.latestCkptSeq()
	for s := range r.xs.myCkpts {
		if s < seq && s != newest {
			delete(r.xs.myCkpts, s)
		}
	}
}

// pruneCkptsAbove drops mirror entries above seq (rollback).
func (r *Replica) pruneCkptsAbove(seq message.Seq) {
	if !r.staged() {
		return
	}
	for s := range r.xs.myCkpts {
		if s > seq {
			delete(r.xs.myCkpts, s)
		}
	}
}

// ---------------------------------------------------------------------------
// Reply egress
// ---------------------------------------------------------------------------

// execSender is the executor's reply outbound: the same point-authenticated
// send path the event loop uses, safe off the event loop because it touches
// only immutable config, the thread-safe key store, and the egress stage.
type execSender Replica

// SendReply implements executor.Outbound. It runs on the executor
// goroutine; everything it reaches must be shared (bftowner checks this).
//
// bftlint:entrypoint=executor
// bftlint:send
func (s *execSender) SendReply(rep *message.Reply) {
	r := (*Replica)(s)
	if r.muted.Load() {
		return // WAL replay: re-executed batches must not re-send replies
	}
	r.behaviorMangle(rep)
	r.out.Send(rep.Client, rep, egress.Point)
}
