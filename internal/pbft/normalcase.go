package pbft

import (
	"bytes"
	"slices"
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/crypto"
	"repro/internal/executor"
	"repro/internal/message"
	"repro/internal/quorum"
	"repro/internal/vlog"
	"repro/internal/wal"
)

// smallResultThreshold disables digest replies for tiny results (§5.1.1:
// "not used for very small replies; the threshold is 32 bytes").
const smallResultThreshold = 32

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

func (r *Replica) onRequest(req *message.Request) {
	client := req.Client
	if !client.IsClient() && !req.Recovery() {
		return // only recovery requests may originate from replicas
	}

	// Exactly-once: replay the cached reply for the last executed timestamp,
	// drop anything older (§2.3.3).
	if ts, ok := r.lastReplied(client); ok {
		if req.Timestamp < ts {
			return
		}
		if req.Timestamp == ts {
			r.ex.ResendReply(client, r.view)
			return
		}
	}

	// Read-only optimization (§5.1.3): execute immediately once the state
	// reflects only committed requests. A request FLAGGED read-only whose
	// operation actually mutates state is demoted to the read-write path
	// right here: §5.1.3 has the replica treat it like any other request,
	// so the client gets its reply in one round trip instead of burning a
	// full retry timeout before its retransmission demotes it.
	if req.ReadOnly() && r.cfg.Opt.ReadOnly && !req.Recovery() &&
		r.service.IsReadOnly(req.Op) {
		r.roQueue = append(r.roQueue, queuedRO{req: req, mark: r.maxExec})
		r.drainReadOnly()
		return
	}

	d := req.Digest()
	isNew := !r.log.HasRequest(d)
	r.log.StoreRequest(req)
	r.enqueueRequest(req)

	if req.Recovery() {
		r.noteRecoveryRequest(req)
	}

	if r.vc.pending && r.primary(r.view) == r.id {
		// A newly-arrived body may satisfy condition A3 (§3.2.4).
		r.runPrimaryDecision()
	}
	if r.isPrimary() && r.active {
		r.tryIssuePrePrepares()
	} else if isNew && !r.cfg.Opt.separate(len(req.Op)) {
		// Relay to the primary, which may not have received it (§4.1): the
		// client's first transmission of an inline-sized request goes to
		// the primary alone, so a backup sees one only on a retransmission.
		// A separately transmitted request reaches the primary directly on
		// every transmission, so relaying it would only send the primary a
		// copy it already has.
		r.sendRaw(r.primary(r.view), req)
	}
	// Either way we are now waiting for this request (§2.3.5).
	r.updateVCTimer()

	// A request body arriving may unblock a buffered pre-prepare (§5.1.5).
	r.retryWaitingPrePrepares()
}

// enqueueRequest keeps a FIFO queue with only the newest request per client
// (§5.5 fairness). The queue is an intrusive list indexed by client, so both
// this and dequeueExecuted are O(1) regardless of how many clients are
// backed up behind the primary.
func (r *Replica) enqueueRequest(req *message.Request) {
	r.queue.Push(req.Client, req.Digest(), len(req.Op))
}

// dequeueExecuted removes a request from the queue once it executes.
func (r *Replica) dequeueExecuted(client message.NodeID, d crypto.Digest) {
	r.queue.Remove(client, d)
}

// lastReplied returns the timestamp of the last reply sent to client, if
// any — the exactly-once check (§2.3.3).
func (r *Replica) lastReplied(client message.NodeID) (uint64, bool) {
	if cr := r.replyCache.Get(client); cr != nil {
		return cr.Timestamp, true
	}
	return 0, false
}

// ---------------------------------------------------------------------------
// Primary: batching and pre-prepare issue (§5.1.4, §5.1.5)
// ---------------------------------------------------------------------------

// tryIssuePrePrepares drains the request queue into pre-prepares under the
// sliding window of §5.1.4: while fewer than W batches are in flight
// (o - e < W) and the high water mark allows, the next batch takes what is
// queued, up to batchRequests requests (one with Batching off) and
// batchBytes bytes. It re-fires on every event that can create room or
// work: request arrival, execution progress (executeForward), and
// checkpoint stability (makeStable).
func (r *Replica) tryIssuePrePrepares() {
	if r.cfg.Behavior == SilentPrimary || !r.isPrimary() || !r.active || r.vc.pending {
		return
	}
	limit := 1
	if r.cfg.Opt.Batching {
		limit = batchRequests
	}
	for r.queue.Len() > 0 && r.seqno < r.lastExec+r.cfg.window() && r.seqno < r.log.High() {
		batch, size := r.takeBatch(limit)
		if len(batch) == 0 {
			break
		}
		r.metrics.BatchesProposed++
		r.metrics.RequestsProposed += uint64(len(batch))
		r.metrics.BatchBytesTotal += uint64(size)
		r.issueBatch(batch)
		clear(batch) // the scratch must not keep proposed requests alive
	}
}

// takeBatch pops up to limit requests off the queue, stopping early rather
// than pushing a non-empty batch past batchBytes. A single request larger
// than batchBytes is proposed alone — the cap bounds batch assembly, it is
// not an admission limit. The batch is the event loop's scratch slice,
// valid until the next call; the caller clears it once the batch is issued.
func (r *Replica) takeBatch(limit int) (batch []*message.Request, size int) {
	batch = r.batchScratch[:0]
	for len(batch) < limit && r.queue.Len() > 0 {
		if _, _, sz, ok := r.queue.Front(); ok && len(batch) > 0 && size+sz > batchBytes {
			break // byte cap: flush what we have; the next batch takes it
		}
		_, d, sz, _ := r.queue.Pop()
		req, ok := r.log.Request(d)
		if !ok {
			continue
		}
		// Skip anything already executed (duplicate arrivals).
		if ts, ok := r.lastReplied(req.Client); ok && req.Timestamp <= ts {
			continue
		}
		// Skip requests already assigned to a live slot (a retransmission
		// arriving while the first assignment is still in flight).
		if r.requestAssigned(d) {
			continue
		}
		batch = append(batch, req)
		size += sz
	}
	r.batchScratch = batch
	return batch, size
}

// requestAssigned reports whether a request digest already rides in some
// live slot's batch.
func (r *Replica) requestAssigned(d crypto.Digest) bool {
	assigned := false
	r.log.Slots(func(s *vlog.Slot) {
		if assigned || s.PrePrepare == nil || s.Executed {
			return
		}
		for i := range s.PrePrepare.Inline {
			if s.PrePrepare.Inline[i].Digest() == d {
				assigned = true
				return
			}
		}
		for _, dd := range s.PrePrepare.Digests {
			if dd == d {
				assigned = true
				return
			}
		}
	})
	return assigned
}

func (r *Replica) issueBatch(batch []*message.Request) {
	r.seqno++
	seq := r.seqno
	pp := r.buildPrePrepare(r.view, seq, batch)

	if r.cfg.Behavior == ConflictingPrimary {
		r.issueConflicting(pp, batch)
		return
	}

	r.multicastReplicas(pp)
	r.acceptPrePrepare(pp)
}

// buildPrePrepare splits a batch into inline requests and digests of
// separately-transmitted ones, and attaches the non-deterministic choice.
// Both lists are sized once, from a first pass that counts them.
func (r *Replica) buildPrePrepare(v message.View, seq message.Seq, batch []*message.Request) *message.PrePrepare {
	pp := &message.PrePrepare{View: v, Seq: seq, Replica: r.id, NonDet: r.service.ProposeNonDet()}
	inline := 0
	for _, req := range batch {
		if !r.cfg.Opt.separate(len(req.Op)) {
			inline++
		}
	}
	if inline > 0 {
		pp.Inline = make([]message.Request, 0, inline)
	}
	if separate := len(batch) - inline; separate > 0 {
		pp.Digests = make([]crypto.Digest, 0, separate)
	}
	for _, req := range batch {
		if r.cfg.Opt.separate(len(req.Op)) {
			pp.Digests = append(pp.Digests, req.Digest())
		} else {
			pp.Inline = append(pp.Inline, *req)
		}
	}
	return pp
}

// issueConflicting is the Byzantine-primary personality: half the backups
// receive a pre-prepare for the real batch, the other half one with a
// different non-deterministic value (hence a different digest) for the same
// sequence number. Safety demands that at most one of them ever commits.
// Each version carries the full group authenticator a multicast would.
func (r *Replica) issueConflicting(pp *message.PrePrepare, batch []*message.Request) {
	alt := r.buildPrePrepare(pp.View, pp.Seq, batch)
	alt.NonDet = append([]byte("evil-"), alt.NonDet...)
	for i, id := range r.replicaIDs() {
		if id == r.id {
			continue
		}
		if i%2 == 0 {
			r.resendOwn(id, pp)
		} else {
			r.resendOwn(id, alt)
		}
	}
	r.acceptPrePrepare(pp)
}

// ---------------------------------------------------------------------------
// Backups: pre-prepare / prepare / commit
// ---------------------------------------------------------------------------

func (r *Replica) onPrePrepare(pp *message.PrePrepare) {
	if pp.Replica != r.primary(pp.View) || pp.Replica == r.id {
		return
	}
	if !r.inWV(pp.View, pp.Seq) || !r.active || r.vc.pending {
		return
	}
	slot := r.log.Slot(pp.Seq)
	if slot == nil {
		return
	}
	if slot.HasDigest {
		// The slot's digest is already fixed — either by an earlier
		// pre-prepare or by a new-view decision. A matching body fills the
		// slot; a conflicting one is ignored.
		if slot.PrePrepare == nil && pp.View == slot.View && pp.BatchDigest() == slot.Digest {
			r.fillSlotBody(pp, slot)
		}
		return
	}
	// Backups validate the primary's non-deterministic choice (§5.4).
	if !r.service.CheckNonDet(pp.NonDet) {
		return
	}
	// Store verified inline request bodies (their per-request authenticators
	// were checked by requestAuthOK below, via the group authenticator on
	// the pre-prepare plus per-request checks).
	if !r.requestAuthOK(pp, slot) {
		return
	}
	if !r.haveSeparateBodies(pp) {
		// Buffer until the client's separate transmission arrives (§5.1.5).
		// Seq was bounded to the log window by inWV above.
		r.waitingPP[pp.Seq] = pp // bftlint:allow=bfttaint
		return
	}
	r.acceptBackupPrePrepare(pp, slot)
}

// requestAuthOK applies the three request-authentication conditions of
// §3.2.2 to every inline request in the batch.
func (r *Replica) requestAuthOK(pp *message.PrePrepare, slot *vlog.Slot) bool {
	if r.cfg.Mode == ModePK {
		for i := range pp.Inline {
			req := &pp.Inline[i]
			if !r.verifySig(req) {
				return false
			}
		}
		return true
	}
	for i := range pp.Inline {
		req := &pp.Inline[i]
		if req.Recovery() {
			if !r.verifySig(req) {
				return false
			}
			continue
		}
		// Condition 1: the MAC for us in the request's authenticator.
		r.ensurePeerKeys(req.Client)
		if req.Auth.Kind == message.AuthVector &&
			r.ks.CheckAuthenticator(uint32(req.Client), req.Payload(), req.Auth.Vector) {
			continue
		}
		// Condition 3: we already hold an authenticated copy.
		if r.log.HasRequest(req.Digest()) {
			continue
		}
		// Condition 2: f prepares carrying this batch digest vouch for it.
		if slot.PrepareDigestCount(pp.BatchDigest()) >= quorum.Vouchers(r.f) {
			continue
		}
		return false
	}
	return true
}

// haveSeparateBodies reports whether every separately-transmitted request in
// the batch is in the store (null digests count as present).
func (r *Replica) haveSeparateBodies(pp *message.PrePrepare) bool {
	for _, d := range pp.Digests {
		if d.IsZero() {
			continue
		}
		if !r.log.HasRequest(d) {
			return false
		}
	}
	return true
}

// retryWaitingPrePrepares re-processes buffered pre-prepares whose request
// bodies may have arrived.
func (r *Replica) retryWaitingPrePrepares() {
	if len(r.waitingPP) == 0 {
		return
	}
	// Accepting a buffered pre-prepare multicasts a prepare, so process the
	// buffer in sequence order rather than map order: the relative send
	// order is observable on the wire and must be identical on every
	// seeded run.
	seqs := make([]message.Seq, 0, len(r.waitingPP))
	for seq := range r.waitingPP {
		seqs = append(seqs, seq)
	}
	slices.Sort(seqs)
	for _, seq := range seqs {
		pp := r.waitingPP[seq]
		if !r.inWV(pp.View, seq) {
			delete(r.waitingPP, seq)
			continue
		}
		if !r.haveSeparateBodies(pp) {
			continue
		}
		delete(r.waitingPP, seq)
		slot := r.log.Slot(seq)
		if slot == nil {
			continue
		}
		switch {
		case slot.HasDigest:
			if slot.PrePrepare == nil && pp.View == slot.View && pp.BatchDigest() == slot.Digest {
				r.fillSlotBody(pp, slot)
			}
		case r.requestAuthOK(pp, slot):
			r.acceptBackupPrePrepare(pp, slot)
		}
	}
}

// fillSlotBody supplies the batch body for a slot whose digest was fixed by
// a new-view decision (the re-issued pre-prepare needs no per-request
// authentication: condition A2 already vouched for the batch).
func (r *Replica) fillSlotBody(pp *message.PrePrepare, slot *vlog.Slot) {
	for i := range pp.Inline {
		r.log.StoreRequest(&pp.Inline[i])
	}
	if !r.haveSeparateBodies(pp) {
		// Both callers bound Seq: onPrePrepare via inWV, new-view decisions
		// re-issue only in-window sequence numbers.
		r.waitingPP[pp.Seq] = pp // bftlint:allow=bfttaint
		return
	}
	slot.PrePrepare = pp
	r.rememberBatch(pp)
	r.walPrePrepare(pp)
	r.executeForward()
}

// acceptBackupPrePrepare logs the pre-prepare and enters the prepare phase.
func (r *Replica) acceptBackupPrePrepare(pp *message.PrePrepare, slot *vlog.Slot) {
	for i := range pp.Inline {
		r.log.StoreRequest(&pp.Inline[i])
		r.enqueueRequest(&pp.Inline[i])
	}
	slot.AddPrePrepare(pp)
	slot.PrePrepared = true
	r.rememberBatch(pp)
	r.walPrePrepare(pp)
	r.updateVCTimer()

	if !slot.SentPrepare {
		slot.SentPrepare = true
		r.walVote(wal.KindPrepare, pp.View, pp.Seq, r.id, slot.Digest)
		r.multicastReplicas(r.ownPrepare(pp.View, pp.Seq, slot.Digest))
		slot.AddPrepare(r.id, pp.View, slot.Digest)
	}
	r.progressSlot(slot)
}

// acceptPrePrepare is the primary-side acceptance of its own pre-prepare.
func (r *Replica) acceptPrePrepare(pp *message.PrePrepare) {
	slot := r.log.Slot(pp.Seq)
	if slot == nil {
		return
	}
	for i := range pp.Inline {
		r.log.StoreRequest(&pp.Inline[i])
	}
	slot.AddPrePrepare(pp)
	slot.PrePrepared = true
	r.rememberBatch(pp)
	r.walPrePrepare(pp)
	r.progressSlot(slot)
}

func (r *Replica) onPrepare(p *message.Prepare) {
	if p.Replica == r.primary(p.View) {
		return // primaries never send prepares (§2.3.3)
	}
	if !r.inWV(p.View, p.Seq) {
		return
	}
	slot := r.log.Slot(p.Seq)
	if slot == nil {
		return
	}
	slot.AddPrepare(p.Replica, p.View, p.Digest)
	r.walVote(wal.KindPrepare, p.View, p.Seq, p.Replica, p.Digest)
	// A prepare may satisfy request-auth condition 2 for a buffered
	// pre-prepare.
	if pp, ok := r.waitingPP[p.Seq]; ok && !slot.HasDigest && r.haveSeparateBodies(pp) {
		if r.requestAuthOK(pp, slot) {
			delete(r.waitingPP, p.Seq)
			r.acceptBackupPrePrepare(pp, slot)
			return
		}
	}
	r.progressSlot(slot)
}

func (r *Replica) onCommit(c *message.Commit) {
	if c.View > r.view || !r.log.InWindow(c.Seq) {
		return
	}
	slot := r.log.Slot(c.Seq)
	if slot == nil {
		return
	}
	slot.AddCommit(c.Replica, c.View, c.Digest)
	r.walVote(wal.KindCommit, c.View, c.Seq, c.Replica, c.Digest)
	r.progressSlot(slot)
}

// ownPrepare and ownCommit build this replica's prepare or commit for
// (v, seq, d) in scratch the event loop owns. The egress stage seals it
// into a wire buffer before Multicast or Send returns, so the next vote
// may overwrite it.
func (r *Replica) ownPrepare(v message.View, seq message.Seq, d crypto.Digest) *message.Prepare {
	r.prepOut = message.Prepare{View: v, Seq: seq, Digest: d, Replica: r.id}
	return &r.prepOut
}

func (r *Replica) ownCommit(v message.View, seq message.Seq, d crypto.Digest) *message.Commit {
	r.commitOut = message.Commit{View: v, Seq: seq, Digest: d, Replica: r.id}
	return &r.commitOut
}

// progressSlot advances a slot through prepared → committed and triggers
// execution.
func (r *Replica) progressSlot(slot *vlog.Slot) {
	if slot.PrePrepare == nil {
		return
	}
	p := r.primary(slot.View)
	if r.log.CheckPrepared(slot, p) && !slot.SentCommit {
		slot.SentCommit = true
		r.walVote(wal.KindCommit, slot.View, slot.Seq, r.id, slot.Digest)
		r.multicastReplicas(r.ownCommit(slot.View, slot.Seq, slot.Digest))
		slot.AddCommit(r.id, slot.View, slot.Digest)
	}
	r.log.CheckCommitted(slot, p)
	r.executeForward()
}

// ---------------------------------------------------------------------------
// Execution (§2.3.3, §5.1.2)
// ---------------------------------------------------------------------------

// executeForward executes committed batches in order, tentatively executes
// prepared batches when permitted, and finalizes tentative executions whose
// commits completed.
func (r *Replica) executeForward() {
	for {
		progress := false

		// Finalize tentative executions that have since committed.
		for r.lastCommitted < r.lastExec {
			s, ok := r.log.Peek(r.lastCommitted + 1)
			if !ok || !r.log.CheckCommitted(s, r.primary(s.View)) {
				break
			}
			r.finalizeBatch(s)
			progress = true
		}

		// Execute the next batch.
		next := r.lastExec + 1
		s, ok := r.log.Peek(next)
		if ok && s.PrePrepare != nil && r.haveSeparateBodies(s.PrePrepare) {
			if r.log.CheckCommitted(s, r.primary(s.View)) {
				r.execBatch(s, false)
				progress = true
			} else if r.cfg.Opt.TentativeExec && r.active && !r.vc.pending &&
				!r.rec.inRecovery &&
				r.lastExec == r.lastCommitted &&
				r.log.CheckPrepared(s, r.primary(s.View)) {
				r.execBatch(s, true)
				progress = true
			}
		}

		if !progress {
			break
		}
	}
	r.drainReadOnly()
	r.updateVCTimer()
	if r.isPrimary() {
		r.tryIssuePrePrepares()
	}
}

// batchRequests resolves the bodies of every request in a batch, in order,
// into the event loop's scratch slice: the result is valid until the next
// call, and the caller clears it (clearScratch) once done. Null digests
// yield nil entries.
func (r *Replica) batchRequests(pp *message.PrePrepare) []*message.Request {
	out := r.reqScratch[:0]
	for i := range pp.Inline {
		out = append(out, &pp.Inline[i])
	}
	for _, d := range pp.Digests {
		if d.IsZero() {
			out = append(out, nil)
			continue
		}
		req, _ := r.log.Request(d)
		out = append(out, req) // nil if missing (caller checked bodies)
	}
	r.reqScratch = out
	return out
}

// clearScratch drops the references batchRequests and execBatch left in the
// event loop's scratch slices, so they do not keep executed requests alive.
func (r *Replica) clearScratch() {
	clear(r.reqScratch)
	clear(r.entryScratch)
	r.reqScratch, r.entryScratch = r.reqScratch[:0], r.entryScratch[:0]
}

// execBatch executes every request of the batch at slot s against the
// service state and replies to clients. tentative selects §5.1.2 semantics.
func (r *Replica) execBatch(s *vlog.Slot, tentative bool) {
	pp := s.PrePrepare
	seq := s.Seq
	entries := r.entryScratch[:0]
	for _, req := range r.batchRequests(pp) {
		if req == nil {
			continue // null request: no-op (§2.3.5)
		}
		d := req.Digest()
		r.log.MarkRequestExecuted(d, seq)
		r.dequeueExecuted(req.Client, d)
		ent := executor.Entry{Req: req}
		if req.Recovery() {
			// A recovery request's result is its sequence number; its
			// protocol effects run below, once it has executed (§4.3.2).
			ent.Pre, ent.HasPre = recoveryResult(seq), true
		}
		entries = append(entries, ent)
	}
	r.entryScratch = entries
	r.ex.ExecBatch(seq, r.view, pp.NonDet, tentative, entries)
	for i := range entries {
		if !entries[i].Executed {
			continue
		}
		r.metrics.RequestsExecuted++
		if req := entries[i].Req; req.Recovery() {
			r.recoveryRequestEffects(req, seq)
		}
	}
	r.clearScratch()
	r.lastExec = seq
	r.maxExec = max(r.maxExec, seq)
	r.execRecords[seq] = execRecord{digest: s.Digest, tentative: tentative}
	r.metrics.BatchesExecuted++
	// Progress in the new view resets the exponential backoff (§2.3.5).
	r.vc.waitTimeout = 0
	r.vcTimeout = r.cfg.ViewChangeTimeout
	if tentative {
		s.ExecutedTentative = true
		r.metrics.TentativeExecs++
	} else {
		s.Executed = true
		r.lastCommitted = seq
	}

	// Checkpoint right after (tentative) execution of a multiple of K; the
	// checkpoint message goes out only once the batch commits (§5.1.2).
	if seq%r.cfg.CheckpointInterval == 0 {
		d := r.ex.TakeCheckpoint(seq, 0)
		r.metrics.CheckpointsTaken++
		if tentative {
			r.pendingCkpts[seq] = d
		} else {
			r.broadcastCheckpoint(seq, d)
		}
	}
}

// finalizeBatch upgrades a tentative execution to committed.
func (r *Replica) finalizeBatch(s *vlog.Slot) {
	s.Executed = true
	r.lastCommitted = s.Seq
	if rec, ok := r.execRecords[s.Seq]; ok {
		rec.tentative = false
		r.execRecords[s.Seq] = rec
	}
	// The batch's replies are no longer tentative.
	if s.PrePrepare != nil {
		r.ex.Finalize(r.batchRequests(s.PrePrepare))
		r.clearScratch()
	}
	if d, ok := r.pendingCkpts[s.Seq]; ok {
		delete(r.pendingCkpts, s.Seq)
		r.broadcastCheckpoint(s.Seq, d)
	}
}

// drainReadOnly answers queued read-only requests once the state reflects
// only committed execution (§5.1.3). Two conditions gate each reply: the
// state must hold no tentative (revocable) writes NOW, and everything this
// replica had ever (tentatively) executed when the request ARRIVED must
// have committed — a view change may roll a tentative write back and
// recommit it later, and a read the client issued after that write's reply
// certificate must not answer from the rolled-back state in between, even
// if it arrives after the rollback.
func (r *Replica) drainReadOnly() {
	if len(r.roQueue) == 0 || r.lastExec != r.lastCommitted {
		return
	}
	// Filter in place, so the queue keeps its array across drains; the
	// cleared tail pins no answered request.
	q := r.roQueue
	keep := q[:0]
	for _, e := range q {
		if e.mark > r.lastCommitted {
			// The tentative prefix observed at arrival has not recommitted
			// yet; keep waiting (the client's retry demotes to read-write if
			// this drags on, §5.1.3).
			keep = append(keep, e)
			continue
		}
		r.ex.ExecReadOnly(e.req, r.view)
	}
	clear(q[len(keep):])
	r.roQueue = keep
}

// ---------------------------------------------------------------------------
// Checkpoints and garbage collection (§2.3.4, §3.2.3)
// ---------------------------------------------------------------------------

// ckptDigest combines the partition-tree root and the reply-cache blob into
// the digest carried by checkpoint messages. Every replica must compute the
// same digest for the same state, so nothing time- or randomness-dependent
// may be reachable from here.
//
// bftlint:deterministic
func ckptDigest(root crypto.Digest, extra []byte) crypto.Digest {
	return checkpoint.CombinedDigest(root, extra)
}

// ownCkptDigest returns this replica's digest for the checkpoint at seq, if
// it holds that snapshot.
func (r *Replica) ownCkptDigest(seq message.Seq) (crypto.Digest, bool) {
	snap, ok := r.ckpt.Snapshot(seq)
	if !ok {
		return crypto.Digest{}, false
	}
	return ckptDigest(snap.Root, snap.Extra), true
}

func (r *Replica) broadcastCheckpoint(seq message.Seq, d crypto.Digest) {
	cp := &message.Checkpoint{Seq: seq, Digest: d, Replica: r.id}
	// Durability barrier (§2.3.4): a checkpoint vote asserts state the group
	// may build a stable certificate on, so everything that produced it must
	// survive a crash before the claim leaves this replica.
	r.walBarrier()
	r.multicastReplicas(cp)
	r.addCkptVote(seq, r.id, d)
	r.checkCkptStable(seq)
}

func (r *Replica) addCkptVote(seq message.Seq, from message.NodeID, d crypto.Digest) {
	votes, ok := r.ckptVotes[seq]
	if !ok {
		votes = make(map[message.NodeID]crypto.Digest)
		r.ckptVotes[seq] = votes
	}
	votes[from] = d
}

func (r *Replica) onCheckpoint(cp *message.Checkpoint) {
	if cp.Seq <= r.log.Low() {
		return
	}
	r.addCkptVote(cp.Seq, cp.Replica, cp.Digest)
	r.checkCkptStable(cp.Seq)
	r.maybeStartTransfer(cp.Seq)
}

// checkCkptStable makes a checkpoint stable when a quorum certifies a digest
// matching our own snapshot (§3.2.3 requires a quorum, not a weak cert, so
// other replicas can reconstruct proof during view changes).
func (r *Replica) checkCkptStable(seq message.Seq) {
	if seq <= r.log.Low() {
		return
	}
	mine, ok := r.ownCkptDigest(seq)
	if !ok {
		return
	}
	votes := r.ckptVotes[seq]
	n := 0
	for _, d := range votes {
		if d == mine {
			n++
		}
	}
	if n < r.log.Quorum() {
		return
	}
	r.makeStable(seq)
}

// makeStable advances the low water mark and garbage collects (§2.3.4).
func (r *Replica) makeStable(seq message.Seq) {
	if seq <= r.log.Low() {
		return
	}
	r.log.AdvanceLow(seq)
	r.ex.Discard(seq)
	for s := range r.ckptVotes {
		if s <= seq {
			delete(r.ckptVotes, s)
		}
	}
	for s := range r.execRecords {
		if s <= seq {
			delete(r.execRecords, s)
		}
	}
	for s := range r.pendingCkpts {
		if s <= seq {
			delete(r.pendingCkpts, s)
		}
	}
	for s := range r.waitingPP {
		if s <= seq {
			delete(r.waitingPP, s)
		}
	}
	r.metrics.StableCheckpoints++
	r.persistStable(seq) // WAL snapshot + segment rotation (replay window = L)
	r.pruneViewChangeSets(seq)
	r.recoveryCheckpointStable(seq)
	if r.isPrimary() {
		r.tryIssuePrePrepares() // window advanced
	}
}

// maybeStartTransfer reacts to a weak certificate for a checkpoint we have
// not reached (§5.3.2). Once such a checkpoint is stable group-wide, the
// other replicas discard every protocol message at or below it, so replay
// may be impossible and the state itself is the only way to catch up. A
// checkpoint beyond our window triggers the transfer immediately; one
// within it becomes a candidate that fetchTick promotes only if ordinary
// execution fails to reach it within a grace period (a replica lagging by
// milliseconds must not thrash with spurious transfers). Candidates are
// recorded even while a transfer is ACTIVE: a weak certificate ahead of the
// current fetch target is the signal that the target was collected
// cluster-wide and the transfer must be re-pointed — refusing it wedged the
// fetcher on a Fetch nobody could ever serve.
func (r *Replica) maybeStartTransfer(seq message.Seq) {
	if seq <= r.ckpt.Latest().Seq || seq <= r.lastExec {
		return
	}
	if r.fetch.active && seq <= r.fetch.target {
		return // already fetching at least this far
	}
	votes := r.ckptVotes[seq]
	count := make(map[crypto.Digest]int)
	for _, d := range votes {
		count[d]++
	}
	// Pick the transfer target digest in sorted order: only one digest can
	// hold an honest weak certificate, but the scan must not let map order
	// (or a Byzantine voter) decide which certificate we test first.
	ds := make([]crypto.Digest, 0, len(count))
	for d := range count {
		ds = append(ds, d)
	}
	sort.Slice(ds, func(i, j int) bool { return bytes.Compare(ds[i][:], ds[j][:]) < 0 })
	for _, d := range ds {
		if count[d] < r.log.Weak() {
			continue
		}
		if seq > r.log.High() {
			r.startStateTransfer(seq, d)
			return
		}
		if r.fetch.candSeq == 0 || seq > r.fetch.candSeq {
			r.fetch.candSeq = seq
			r.fetch.candDigest = d
			r.fetch.candSince = time.Now()
			r.fetch.candExec = r.lastExec
		}
		return
	}
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

// inWV is the in-wv predicate: right view and inside the water marks.
func (r *Replica) inWV(v message.View, seq message.Seq) bool {
	return v == r.view && r.log.InWindow(seq)
}

// updateVCTimer arms the view-change timer while this backup waits for
// queued requests to execute, per §2.3.5. A tentatively executed batch whose
// commits have not arrived also counts as waiting: the request is answered
// only by a tentative reply the client cannot certify until it commits
// (§5.1.2), and if the primary died right after its pre-prepare the commit
// quorum never forms — the retransmissions then hit the reply cache instead
// of the queue, so the queue alone would leave every backup timerless and
// the view change would never start. The two predicates age differently:
// a queued request holds the deadline fixed (steady progress on OTHER
// requests must not mask a primary censoring this one), while
// tentative-only waiting restarts the deadline whenever the committed
// frontier advances — under sustained load some batch is always tentatively
// ahead of its commits, and a healthy pipelining cluster must not view-
// change over it.
//
// While a view change is pending the deadline belongs to the new-view wait
// (checkVCQuorumTimer arms it once): clearing it here would leave a backup
// waiting forever for the new-view of a primary that crashed.
func (r *Replica) updateVCTimer() {
	if r.vc.pending {
		return
	}
	if r.isPrimary() {
		r.vcTimerDeadline = time.Time{}
		return
	}
	queueWaiting := r.queue.Len() > 0
	tentWaiting := r.lastCommitted < r.lastExec
	switch {
	case !queueWaiting && !tentWaiting:
		r.vcTimerDeadline = time.Time{}
	case r.vcTimerDeadline.IsZero(),
		!queueWaiting && r.lastCommitted > r.vcTimerCommitted:
		r.vcTimerDeadline = time.Now().Add(r.vcTimeout)
		r.vcTimerCommitted = r.lastCommitted
	}
}
