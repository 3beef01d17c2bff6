package pbft

// Durability integration (internal/wal): the event loop appends protocol
// records — accepted requests and pre-prepares, prepare/commit votes, view
// transitions — to an async group-commit write-ahead log and continues; the
// log goroutine coalesces appends into one write+fsync per group. Two
// multicasts carry an explicit durability barrier before they leave,
// because the receiver treats them as claims about state that must survive
// a crash: checkpoint votes (the snapshot a stable certificate will point
// at) and view-change messages (the P/Q sets other replicas build the
// new-view proof from). Normal-case votes ride the group commit: a kill can
// lose the un-fsynced suffix, which on restart degrades to the replica
// rejoining slightly behind and catching up through the ordinary
// retransmission and state-transfer machinery — the same position a
// replica that crashed just BEFORE voting would be in. (A vote sent but
// lost to the crash can, combined with f simultaneously Byzantine peers,
// fall outside the fault model; Config.WALSyncEvery closes that window at
// the cost of one fsync per record.)
//
// The log truncates at each stable checkpoint: makeStable persists the
// checkpoint's pages and reply cache as a snapshot, the writer rotates to a
// fresh segment, and the replay window stays exactly the water-mark window.
// Restart replays the newest snapshot plus the retained segments with every
// send path muted, then resumes live operation.

import (
	"encoding/binary"
	"time"

	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/wal"
)

// initWAL recovers durable state from cfg.WALDir (no-op when it is unset)
// and starts the group-commit writer. Called at the end of NewReplica,
// before the event loop exists; a directory that cannot even be opened is a
// fatal misconfiguration, not a runtime fault.
func (r *Replica) initWAL() {
	if r.cfg.WALDir == "" {
		return
	}
	backend, err := wal.NewFileBackend(r.cfg.WALDir)
	if err != nil {
		panic("pbft: cannot open WAL directory: " + err.Error())
	}
	recov, err := wal.Recover(backend)
	if err != nil {
		panic("pbft: WAL recovery failed: " + err.Error())
	}

	t0 := time.Now()
	r.muted.Store(true)
	pendingVC := r.replayRecovered(recov)
	r.metrics.ReplayTime = time.Since(t0)

	w, err := wal.Open(backend, recov, wal.Options{SyncEvery: r.cfg.WALSyncEvery})
	if err != nil {
		panic("pbft: cannot open WAL for appending: " + err.Error())
	}
	r.wal = w
	r.muted.Store(false)
	// An existing log means this is a reboot, not a first boot: any session
	// keys rotated since the initial derivation are gone from our keystore
	// but still expected by peers. The event loop re-runs key refreshment
	// as its first act (run()), which heals both directions.
	r.rekeyOnStart = recov.Snap != nil || len(recov.Records) > 0

	if pendingVC > 0 {
		// The crash interrupted a view change after its view-change multicast
		// (the walView record carries a barrier, so its presence proves the
		// send). Re-running startViewChange from the replayed slots rebuilds
		// the same P/Q sets — the barrier flushed every vote that fed them —
		// and re-multicasts the view-change, which is exactly the §2.3.5
		// retransmission a slow view change needs anyway.
		r.view = pendingVC - 1
		r.active = false
		r.startViewChange(pendingVC)
	}
}

// replayRecovered rebuilds protocol state from a recovery scan: install the
// snapshot into the region/checkpoint-manager/reply-cache, then apply the
// records in append order, executing forward as commits complete. Runs
// muted (nothing may touch the network) and before the WAL writer exists
// (nothing may re-log). executeForward's live side effects are no-ops here:
// the read-only and request queues are empty, sends are muted, and no view
// change or recovery is in progress. The one state it leaves is a backup's
// view-change deadline, armed as it would be live while tentative
// executions wait to commit. Returns the view of a view change that was
// pending at the crash, or 0.
func (r *Replica) replayRecovered(recov *wal.Recovered) message.View {
	if snap := recov.Snap; snap != nil {
		seq := message.Seq(snap.Seq)
		np := r.region.NumPages()
		ps := r.region.PageSize()
		for i := range snap.Pages {
			p := &snap.Pages[i]
			// Index and size come off disk: bound them before they touch
			// the region (InstallPage panics on a size mismatch).
			if int(p.Index) >= np || len(p.Content) != ps {
				continue
			}
			r.ckpt.InstallPage(int(p.Index), message.Seq(p.LastMod), p.Content)
		}
		r.replyCache.Install(r.ckpt.SealFetched(seq, snap.Extra).Extra)
		// A root that disagrees with snap.Root (possible only through silent
		// page corruption the per-blob CRC cannot see) is left for the
		// checkpoint protocol: the group's next stable certificate will not
		// match and state transfer replaces the pages.
		r.lastExec = seq
		r.lastCommitted = seq
		r.seqno = seq
		r.log.Reset(seq)
	}

	var pendingVC message.View
	for i := range recov.Records {
		rec := &recov.Records[i]
		switch rec.Kind {
		case wal.KindRequest:
			m, err := message.Unmarshal(rec.Body)
			if err != nil {
				continue
			}
			if req, ok := m.(*message.Request); ok {
				r.log.StoreRequest(req)
			}
		case wal.KindPrePrepare:
			m, err := message.Unmarshal(rec.Body)
			if err != nil {
				continue
			}
			pp, ok := m.(*message.PrePrepare)
			if !ok || !r.log.InWindow(pp.Seq) {
				continue
			}
			slot := r.log.Slot(pp.Seq)
			if slot == nil {
				continue
			}
			for j := range pp.Inline {
				r.log.StoreRequest(&pp.Inline[j])
			}
			if slot.HasDigest {
				if slot.PrePrepare == nil && pp.View == slot.View &&
					pp.BatchDigest() == slot.Digest {
					slot.PrePrepare = pp
				}
			} else {
				slot.AddPrePrepare(pp)
			}
			slot.PrePrepared = true
			r.rememberBatch(pp)
			if pp.Seq > r.seqno {
				r.seqno = pp.Seq
			}
			r.executeForward()
		case wal.KindPrepare, wal.KindCommit:
			seq := message.Seq(rec.Seq)
			if !r.log.InWindow(seq) {
				continue
			}
			slot := r.log.Slot(seq)
			if slot == nil {
				continue
			}
			from := message.NodeID(rec.From)
			if rec.Kind == wal.KindPrepare {
				slot.AddPrepare(from, message.View(rec.View), rec.Digest)
				if from == r.id {
					slot.SentPrepare = true
				}
			} else {
				slot.AddCommit(from, message.View(rec.View), rec.Digest)
				if from == r.id {
					slot.SentCommit = true
				}
			}
			if seq > r.seqno {
				r.seqno = seq
			}
			r.executeForward()
		case wal.KindView:
			v := message.View(rec.View)
			if v < r.view {
				continue
			}
			if rec.Flags&wal.ViewActive != 0 {
				// New-view processed: reset per-view slot state exactly as
				// the live startViewChange did before this point, then let
				// the following records (re-logged X pre-prepares, own
				// prepares) rebuild the new view's slots.
				r.view = v
				r.active = true
				pendingVC = 0
				r.log.Reset(r.log.Low())
				r.waitingPP = make(map[message.Seq]*message.PrePrepare)
			} else {
				// View change multicast, new-view never processed. Keep the
				// slots as they are: initWAL re-runs startViewChange after
				// replay, and computePQ must see the same slot state the
				// pre-crash computation saw.
				r.view = v
				r.active = false
				pendingVC = v
			}
		case wal.KindStable:
			// Proof that a stable certificate existed at seq when this was
			// logged: slide the replay window exactly as the live makeStable
			// did, so a tail longer than L (normal when segment rotation is
			// throttled) keeps replaying instead of falling off the window.
			// Execution must already have reached seq — if it has not
			// (missing bodies in a torn log), leave the window alone and let
			// state transfer finish the job.
			seq := message.Seq(rec.Seq)
			if seq > r.log.Low() && r.lastExec >= seq {
				r.log.AdvanceLow(seq)
				for s := range r.waitingPP {
					if s <= seq {
						delete(r.waitingPP, s)
					}
				}
			}
		case wal.KindKeys:
			// Session-key-exchange state (§4.3.1): peers hold us to it
			// across the crash. Re-derive our announced in-keys from the
			// logged seeds, reinstall peers' announced out-keys, and restore
			// the co-processor counter so our next announcement is not
			// suppressed as a replay.
			epoch := uint32(rec.View)
			if rec.Flags&wal.KeysSelf != 0 {
				if rec.Seq <= r.rec.coCounter {
					continue
				}
				r.rec.epoch = epoch
				r.rec.coCounter = rec.Seq
				body := rec.Body
				for p := 0; p < r.n && len(body) >= 8; p++ {
					peer := message.NodeID(p)
					if peer == r.id {
						continue
					}
					r.ks.RefreshIn(uint32(peer), epoch, binary.LittleEndian.Uint64(body))
					body = body[8:]
				}
				recCopy := *rec
				recCopy.Body = append([]byte(nil), rec.Body...)
				r.keyRecs.self = &recCopy
			} else {
				from := message.NodeID(rec.From)
				if int(rec.From) >= r.n || from == r.id ||
					rec.Seq <= r.rec.lastNewKeyCtr[from] {
					continue
				}
				r.rec.lastNewKeyCtr[from] = rec.Seq
				key := append([]byte(nil), rec.Body...)
				r.ks.SetOut(rec.From, key, epoch)
				recCopy := *rec
				recCopy.Body = key
				if r.keyRecs.outs == nil {
					r.keyRecs.outs = make(map[message.NodeID]*wal.Record)
				}
				r.keyRecs.outs[from] = &recCopy
			}
		}
	}
	r.executeForward()
	if r.lastExec > r.seqno {
		r.seqno = r.lastExec
	}
	return pendingVC
}

// ---------------------------------------------------------------------------
// Append hooks (all no-ops when the WAL is off or the replica is muted)
// ---------------------------------------------------------------------------

// walEnabled gates every hook: no writer means durability is off, muted
// means the replica is replaying (records being applied must not re-log) or
// being killed.
func (r *Replica) walEnabled() bool {
	return r.wal != nil && !r.muted.Load()
}

// walRequest logs one request body (only ever a separately-transmitted
// one — see walPrePrepare).
func (r *Replica) walRequest(req *message.Request) {
	r.wal.Append(wal.Record{
		Kind: wal.KindRequest,
		From: uint32(req.Client),
		Body: walBody(req),
	})
}

// walPrePrepare logs an accepted pre-prepare. Request bodies are logged
// exactly once: inline requests travel inside the pre-prepare record
// itself, and the separately-transmitted ones (§5.1.5, referenced by
// digest) are logged just before it, so a replay that sees the
// pre-prepare always finds every body it references in the records that
// precede it. Requests are deliberately NOT logged on arrival — in the
// common all-inline case that would write every body twice, and bodies
// that never make it into a pre-prepare don't need to survive a crash
// (the client retransmits, §2.3.5).
func (r *Replica) walPrePrepare(pp *message.PrePrepare) {
	if !r.walEnabled() {
		return
	}
	for _, d := range pp.Digests {
		if d.IsZero() {
			continue
		}
		if req, ok := r.log.Request(d); ok {
			r.walRequest(req)
		}
	}
	r.wal.Append(wal.Record{
		Kind: wal.KindPrePrepare,
		Seq:  uint64(pp.Seq),
		View: uint64(pp.View),
		From: uint32(pp.Replica),
		Body: walBody(pp),
	})
}

// walBody is the logged encoding of m: the datagram it was decoded from,
// or a fresh encoding for a message built locally. The codec is strict,
// so both are the same bytes.
func walBody(m message.Message) []byte {
	if b := message.Wire(m); b != nil {
		return b
	}
	return m.Marshal()
}

// walVote logs one prepare or commit vote recorded in a slot — our own
// (restoring the Sent* dedupe flags on replay) or a peer's.
func (r *Replica) walVote(kind wal.Kind, v message.View, seq message.Seq,
	from message.NodeID, d crypto.Digest) {
	if !r.walEnabled() {
		return
	}
	r.wal.Append(wal.Record{
		Kind:   kind,
		Seq:    uint64(seq),
		View:   uint64(v),
		From:   uint32(from),
		Digest: d,
	})
}

// walView logs a view transition; pending (view-change sent) and active
// (new-view processed) both carry a durability barrier at the call site.
func (r *Replica) walView(v message.View, active bool) {
	if !r.walEnabled() {
		return
	}
	var flags uint8
	if active {
		flags = wal.ViewActive
	}
	r.wal.Append(wal.Record{Kind: wal.KindView, View: uint64(v), Flags: flags})
}

// walBarrier blocks until every record appended so far is durable — the
// price of the two sends that claim durable state.
func (r *Replica) walBarrier() {
	if !r.walEnabled() {
		return
	}
	r.wal.Barrier()
}

// keyRecords is the current session-key-exchange state in WAL-record form,
// kept so segment rotation can re-append it into the fresh segment (key
// state must outlive log truncation — peers hold us to it indefinitely).
type keyRecords struct {
	self *wal.Record                    // our latest refreshment (seeds)
	outs map[message.NodeID]*wal.Record // latest accepted announcement per peer
}

// walKeyRefresh logs our own key refreshment — the co-processor counter and
// epoch just advanced, plus the RNG seeds that generated each peer's fresh
// in-key — and barriers before the caller multicasts the announcement: if
// the announcement escapes but the counter record does not, a restart would
// reuse a counter peers have already seen and every announcement after the
// reboot would be suppressed as a replay.
func (r *Replica) walKeyRefresh(seeds []uint64) {
	if !r.walEnabled() {
		return
	}
	body := make([]byte, 0, len(seeds)*8)
	for _, s := range seeds {
		body = binary.LittleEndian.AppendUint64(body, s)
	}
	rec := wal.Record{
		Kind:  wal.KindKeys,
		Flags: wal.KeysSelf,
		Seq:   r.rec.coCounter,
		View:  uint64(r.rec.epoch),
		From:  uint32(r.id),
		Body:  body,
	}
	r.keyRecs.self = &rec
	r.wal.Append(rec)
	r.wal.Barrier()
}

// walNewKey logs a peer's accepted new-key announcement (the out-key we
// must now use toward it). Barriered: the peer forgets its old in-key the
// moment it rotates, so a crash that loses this record would leave the
// restarted replica unable to authenticate to the peer until its next
// refreshment.
func (r *Replica) walNewKey(from message.NodeID, epoch uint32, counter uint64, key []byte) {
	if !r.walEnabled() {
		return
	}
	// Callers validated from against the membership (onNewKey bounds the
	// claimed ID before installing anything); re-check here because this
	// map key must never grow past the group.
	if int(from) >= r.n {
		return
	}
	rec := wal.Record{
		Kind: wal.KindKeys,
		Seq:  counter,
		View: uint64(epoch),
		From: uint32(from),
		Body: append([]byte(nil), key...),
	}
	if r.keyRecs.outs == nil {
		r.keyRecs.outs = make(map[message.NodeID]*wal.Record)
	}
	r.keyRecs.outs[from] = &rec
	r.wal.Append(rec)
	r.wal.Barrier()
}

// reappendKeyRecords re-logs the current key-exchange state after a segment
// rotation discarded the records that carried it.
func (r *Replica) reappendKeyRecords() {
	if r.keyRecs.self == nil && len(r.keyRecs.outs) == 0 {
		return
	}
	if r.keyRecs.self != nil {
		r.wal.Append(*r.keyRecs.self)
	}
	for _, rec := range r.keyRecs.outs {
		r.wal.Append(*rec)
	}
	r.wal.Barrier()
}

// persistStable records the stable checkpoint at seq in the WAL and — once
// the current segment has accumulated enough bytes to be worth replacing —
// saves a full snapshot and rotates the log. Called from makeStable; the
// snapshot may be absent (a new-view certificate can stabilize a checkpoint
// this replica never took), in which case the log keeps its old base and
// the replica relies on state transfer after a crash — the same catch-up it
// is about to perform live.
//
// Rotation is throttled because it is the expensive half of durability:
// copying and durably writing every region page plus the rename costs
// several fsync-class syscalls, and at small checkpoint intervals doing it
// every time dominates the WAL's overhead. Between rotations the KindStable
// record alone carries the truncation point: replay slides its window over
// it, so a multi-checkpoint tail still reconstructs completely.
func (r *Replica) persistStable(seq message.Seq) {
	if !r.walEnabled() {
		return
	}
	rotate := r.wal.Stats().Bytes-r.walRotated >= uint64(r.rotateBytes())
	snap, ok := r.ckpt.Snapshot(seq)
	if !ok {
		return
	}
	ws := &wal.Snapshot{
		Seq:   uint64(seq),
		Root:  snap.Root,
		Extra: append([]byte(nil), snap.Extra...),
	}
	if rotate {
		for p := 0; p < r.region.NumPages(); p++ {
			content, lm, ok := r.ckpt.PageAt(seq, p)
			if !ok {
				return
			}
			ws.Pages = append(ws.Pages, wal.Page{
				Index:   uint32(p),
				LastMod: uint64(lm),
				Content: append([]byte(nil), content...),
			})
		}
	}
	r.wal.Append(wal.Record{
		Kind:   wal.KindStable,
		Seq:    uint64(seq),
		Digest: ckptDigest(ws.Root, ws.Extra),
	})
	if rotate {
		r.wal.SaveSnapshot(ws)
		// Rotation discarded the segments carrying the key-exchange records;
		// key state must outlive truncation, so re-log it first thing in the
		// fresh segment.
		r.reappendKeyRecords()
		r.walRotated = r.wal.Stats().Bytes
	}
}

// rotateBytes is the segment-size threshold above which a stable checkpoint
// triggers a snapshot + rotation.
func (r *Replica) rotateBytes() int64 {
	if r.cfg.WALRotateBytes != 0 {
		return r.cfg.WALRotateBytes
	}
	return 256 << 10
}

// ---------------------------------------------------------------------------
// Crash
// ---------------------------------------------------------------------------

// Kill terminates the replica abruptly, abandoning whatever the WAL writer
// has not yet fsynced — the in-process equivalent of kill -9 mid-batch. The
// durable prefix on disk is exactly what a power failure would leave.
func (r *Replica) Kill() {
	select {
	case <-r.stopC:
		return // already stopped
	default:
	}
	r.muted.Store(true) // what the event loop finishes now never reaches the network
	close(r.stopC)
	r.wg.Wait()
	r.out.Close()
	if r.wal != nil {
		r.wal.Crash()
	}
	r.trans.Close()
	r.pipe.Close()
}
