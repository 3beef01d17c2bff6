package pbft

import (
	"bytes"
	"sort"
	"time"

	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/quorum"
	"repro/internal/wal"
)

// vcState holds all view-change bookkeeping (§3.2.4). It outlives every
// message handler that populates it, so slices and maps taken from inbound
// messages must be deep-copied before they land here — the PR 2 qset
// aliasing bug stored a caller's slice directly and a later in-place sort
// corrupted the sender's message. bftalias enforces the copy.
//
// bftlint:longlived
type vcState struct {
	// pending is true between sending a view-change and accepting the
	// corresponding new-view.
	pending bool

	// forView collects view-change messages for the current (pending or
	// active) view, by sender.
	forView map[message.NodeID]*message.ViewChange
	// future stashes view-change messages for views ahead of ours so they
	// are still available when we join (their senders may have moved on by
	// then and be unable to retransmit). Bounded to a small window.
	future map[message.View]map[message.NodeID]*message.ViewChange
	// latestView tracks the highest view each replica has announced, for
	// the f+1 join rule of §2.3.5.
	latestView map[message.NodeID]message.View

	// Primary-side: acks[src][acker] for view-change certificates, and s,
	// the set S of Fig 3-3 (messages with complete certificates).
	acks map[message.NodeID]map[message.NodeID]bool
	s    map[message.NodeID]*message.ViewChange

	// sentNewView dedupes the primary's new-view broadcast for this view.
	sentNewView bool

	// newView is the accepted new-view for the current view; stashedNV is a
	// candidate waiting for its view-change messages to arrive.
	newView   *message.NewView
	stashedNV *message.NewView

	// PSet and QSet carry prepared / pre-prepared history across view
	// changes (§3.2.4, Fig 3-2).
	pset map[message.Seq]message.PInfo
	qset map[message.Seq][]message.DV

	// batchStore maps batch digest -> pre-prepare content so chosen batches
	// can be re-proposed in the new view (the thesis stores requests; with
	// batching the unit is the batch).
	batchStore map[crypto.Digest]*message.PrePrepare
	batchSeq   map[crypto.Digest]message.Seq

	// wantBatches are batch digests the decision procedure needs but this
	// replica lacks; they are fetched content-addressed from peers.
	wantBatches map[crypto.Digest]bool

	// waitTimeout is the doubling new-view wait timer of §2.3.5.
	waitTimeout time.Duration
	timerArmed  bool
}

func (r *Replica) initViewChangeState() {
	r.vc = vcState{
		forView:     make(map[message.NodeID]*message.ViewChange),
		future:      make(map[message.View]map[message.NodeID]*message.ViewChange),
		latestView:  make(map[message.NodeID]message.View),
		acks:        make(map[message.NodeID]map[message.NodeID]bool),
		s:           make(map[message.NodeID]*message.ViewChange),
		pset:        make(map[message.Seq]message.PInfo),
		qset:        make(map[message.Seq][]message.DV),
		batchStore:  make(map[crypto.Digest]*message.PrePrepare),
		batchSeq:    make(map[crypto.Digest]message.Seq),
		wantBatches: make(map[crypto.Digest]bool),
		waitTimeout: 0,
	}
}

// rememberBatch stores a batch body for re-proposal across view changes.
// Identical batch contents can ride at several sequence numbers (null
// batches all share one digest; retransmitted batches get re-proposed), so
// the GC horizon tracks the HIGHEST sequence number the digest was proposed
// at — the body must survive while any live slot may reference it.
func (r *Replica) rememberBatch(pp *message.PrePrepare) {
	d := pp.BatchDigest()
	r.vc.batchStore[d] = pp
	if pp.Seq > r.vc.batchSeq[d] {
		r.vc.batchSeq[d] = pp.Seq
	}
}

// emptyBatchDigest is the digest of a batch with no requests and no
// non-deterministic value: anyone can synthesize its body.
var emptyBatchDigest = message.BatchDigest(nil, nil)

// pruneViewChangeSets drops history at or below a stable checkpoint.
func (r *Replica) pruneViewChangeSets(stable message.Seq) {
	for s := range r.vc.pset {
		if s <= stable {
			delete(r.vc.pset, s)
		}
	}
	for s := range r.vc.qset {
		if s <= stable {
			delete(r.vc.qset, s)
		}
	}
	for d, s := range r.vc.batchSeq {
		if s <= stable {
			delete(r.vc.batchSeq, d)
			delete(r.vc.batchStore, d)
		}
	}
}

// onViewChangeTimeout fires when the primary kept a backup waiting too long.
func (r *Replica) onViewChangeTimeout() {
	r.vcTimerDeadline = time.Time{}
	r.startViewChange(r.view + 1)
}

// startViewChange moves to view nv and multicasts a view-change message
// (Fig 3-2 computes its P and Q components).
func (r *Replica) startViewChange(nv message.View) {
	if nv <= r.view {
		return
	}
	r.metrics.ViewChanges++

	// Abort tentative executions: revert to the newest snapshot at or below
	// the last committed batch (§5.1.2).
	r.rollbackTentative()

	r.computePQ()

	r.view = nv
	r.active = false
	r.vc.pending = true
	r.vc.forView = make(map[message.NodeID]*message.ViewChange)
	r.vc.acks = make(map[message.NodeID]map[message.NodeID]bool)
	r.vc.s = make(map[message.NodeID]*message.ViewChange)
	r.vc.newView = nil
	r.vc.stashedNV = nil
	r.vc.sentNewView = false
	r.vc.timerArmed = false
	r.vcTimerDeadline = time.Time{}
	if r.vc.waitTimeout == 0 {
		r.vc.waitTimeout = r.vcTimeout
	} else {
		r.vc.waitTimeout *= 2 // exponential backoff (§2.3.5)
	}

	// Clear per-view slot state; history lives in PSet/QSet/batchStore.
	r.log.Reset(r.log.Low())
	r.waitingPP = make(map[message.Seq]*message.PrePrepare)

	// Durability barrier (§3.2.4): the view-change message's P/Q components
	// feed other replicas' new-view proofs. Log the transition and flush —
	// on restart, the walView record's presence proves the multicast may
	// have left, and replay re-runs this view change from the same slots.
	r.walView(nv, false)
	r.walBarrier()

	vc := r.buildViewChange(nv)
	r.multicastReplicas(vc)
	r.acceptViewChange(vc)

	// Replay stashed view-changes for the view we just joined and drop
	// older stashes.
	if m, ok := r.vc.future[nv]; ok {
		delete(r.vc.future, nv)
		for _, fvc := range m {
			r.acceptViewChange(fvc)
		}
	}
	for v := range r.vc.future {
		if v <= nv {
			delete(r.vc.future, v)
		}
	}
}

// rollbackTentative undoes tentative executions that may abort (§5.1.2).
func (r *Replica) rollbackTentative() {
	if r.lastExec <= r.lastCommitted {
		return
	}
	// Find the newest snapshot at or below lastCommitted.
	var target message.Seq
	found := false
	for s := r.lastCommitted; ; s-- {
		if _, ok := r.ckpt.Snapshot(s); ok {
			target = s
			found = true
			break
		}
		if s == 0 {
			break
		}
	}
	if !found {
		return
	}
	extra, ok := r.ckpt.RevertTo(target)
	if !ok {
		return
	}
	r.replyCache.Install(extra)
	r.lastExec = target
	r.lastCommitted = target
	// Requests whose only execution was rolled back must not be GC'd:
	// the new view may reassign them to higher sequence numbers.
	r.log.UnmarkExecutedAbove(target)
	for s := range r.execRecords {
		if s > target {
			delete(r.execRecords, s)
		}
	}
	for s := range r.pendingCkpts {
		if s > target {
			delete(r.pendingCkpts, s)
		}
	}
	r.metrics.Rollbacks++
}

// computePQ folds the current log into PSet and QSet per Fig 3-2.
func (r *Replica) computePQ() {
	low := r.log.Low()
	high := r.log.High()
	for seq := low + 1; seq <= high; seq++ {
		s, ok := r.log.Peek(seq)
		if !ok {
			continue
		}
		if s.HasDigest && s.Prepared {
			r.vc.pset[seq] = message.PInfo{Seq: seq, Digest: s.Digest, View: s.View}
		}
		if s.HasDigest && s.PrePrepared {
			entries := r.vc.qset[seq]
			found := false
			for i := range entries {
				if entries[i].Digest == s.Digest {
					if s.View > entries[i].View {
						entries[i].View = s.View
					}
					found = true
					break
				}
			}
			if !found {
				entries = append(entries, message.DV{Digest: s.Digest, View: s.View})
			}
			r.vc.qset[seq] = entries
		}
	}
}

// buildViewChange assembles ⟨VIEW-CHANGE, nv, h, C, P, Q, i⟩.
func (r *Replica) buildViewChange(nv message.View) *message.ViewChange {
	vc := &message.ViewChange{NewView: nv, H: r.log.Low(), Replica: r.id}
	// C: every retained checkpoint (seq, digest) at or above the low water
	// mark, ascending.
	latest := r.ckpt.Latest().Seq
	for s := r.log.Low(); s <= latest; s += r.cfg.CheckpointInterval {
		if d, ok := r.ownCkptDigest(s); ok {
			vc.Ckpts = append(vc.Ckpts, message.CkptInfo{Seq: s, Digest: d})
		}
	}
	// Deterministic order by seq for P and Q.
	seqs := make([]message.Seq, 0, len(r.vc.pset))
	for s := range r.vc.pset {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		vc.P = append(vc.P, r.vc.pset[s])
	}
	seqs = seqs[:0]
	for s := range r.vc.qset {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, s := range seqs {
		// Copy the entries: the live qset keeps mutating (computePQ bumps
		// views in place), and the message we are building is stored, hashed
		// into certificates, and re-marshaled for retransmission — its body
		// must be frozen at build time.
		vc.Q = append(vc.Q, message.QInfo{
			Seq:     s,
			Entries: append([]message.DV(nil), r.vc.qset[s]...),
		})
	}
	return vc
}

// correctViewChange is the correct-view-change predicate: every P/Q entry
// must be for a view before the new view.
func correctViewChange(vc *message.ViewChange) bool {
	for _, p := range vc.P {
		if p.View >= vc.NewView {
			return false
		}
	}
	for _, q := range vc.Q {
		for _, e := range q.Entries {
			if e.View >= vc.NewView {
				return false
			}
		}
	}
	return true
}

// onUnauthenticatedViewChange accepts a view-change whose authenticator did
// not verify, provided its body digest matches the entry for its sender in
// the new-view certificate we are trying to verify. The digest pins the
// content, so authentication adds nothing (§3.2.4: "a backup can accept a
// view-change message whose authenticator is incorrect if it [matches] the
// digest and identifier in V"; we require the full new-view in hand, which
// the primary retransmits alongside).
func (r *Replica) onUnauthenticatedViewChange(vc *message.ViewChange) {
	nv := r.vc.stashedNV
	if nv == nil || !r.vc.pending || nv.View != r.view || vc.NewView != r.view {
		r.metrics.MsgsDroppedBadAuth++
		return
	}
	if !correctViewChange(vc) {
		return
	}
	d := vc.Digest()
	for _, ref := range nv.V {
		if ref.Replica == vc.Replica && ref.VCDigest == d {
			r.acceptViewChange(vc)
			return
		}
	}
	r.metrics.MsgsDroppedBadAuth++
}

func (r *Replica) onViewChange(vc *message.ViewChange) {
	if !correctViewChange(vc) {
		return
	}
	if v, ok := r.vc.latestView[vc.Replica]; !ok || vc.NewView > v {
		r.vc.latestView[vc.Replica] = vc.NewView
	}

	// Self-demotion (§4.3.2): a view-change for v+1 sent by the primary of
	// our current view v is honored immediately — replacing a primary at
	// its own request is always safe, and recovering primaries rely on it
	// to hand off the view without waiting out the backups' timers.
	if vc.NewView == r.view+1 && vc.Replica == r.primary(r.view) && r.active {
		r.startViewChange(vc.NewView)
	}

	// Stash messages for future views: when we join one, its earlier
	// view-changes must still be on hand (§5.2's retransmission cannot
	// recover them once their senders move past that view).
	if vc.NewView > r.view {
		m := r.vc.future[vc.NewView]
		if m == nil {
			if vc.NewView <= r.view+64 { // bound memory (§5.5)
				m = make(map[message.NodeID]*message.ViewChange)
				r.vc.future[vc.NewView] = m
			}
		}
		if m != nil {
			if _, dup := m[vc.Replica]; !dup {
				m[vc.Replica] = vc
			}
		}
	}

	// Join rule (§2.3.5): f+1 replicas ahead of us drag us forward to the
	// smallest of their views.
	if vc.NewView > r.view {
		r.maybeJoinViewChange()
		if vc.NewView != r.view {
			return
		}
	}
	if vc.NewView != r.view {
		return
	}
	r.acceptViewChange(vc)
}

// maybeJoinViewChange applies the f+1 rule.
func (r *Replica) maybeJoinViewChange() {
	var ahead []message.View
	for _, v := range r.vc.latestView {
		if v > r.view {
			ahead = append(ahead, v)
		}
	}
	if len(ahead) >= quorum.Weak(r.f) {
		minV := ahead[0]
		for _, v := range ahead {
			if v < minV {
				minV = v
			}
		}
		r.startViewChange(minV)
	}
}

// acceptViewChange stores a view-change for the current view, acks it, and
// advances primary-side aggregation.
func (r *Replica) acceptViewChange(vc *message.ViewChange) {
	if _, ok := r.vc.forView[vc.Replica]; ok {
		// Keep the first (acks reference its digest).
		r.tryProcessStashedNewView()
		r.checkVCQuorumTimer()
		return
	}
	r.vc.forView[vc.Replica] = vc

	p := r.primary(r.view)
	if r.id == p {
		if vc.Replica == r.id {
			r.vc.s[vc.Replica] = vc // own message needs no certificate
		} else {
			r.countAcksFor(vc)
		}
		r.runPrimaryDecision()
	} else if vc.Replica != r.id {
		// Ack other replicas' view-changes to the new primary (§3.2.4).
		ack := &message.ViewChangeAck{
			View:     r.view,
			Replica:  r.id,
			Source:   vc.Replica,
			VCDigest: vc.Digest(),
		}
		r.sendTo(p, ack)
	}
	r.tryProcessStashedNewView()
	r.checkVCQuorumTimer()
}

// checkVCQuorumTimer arms the doubling wait timer once 2f+1 view-changes for
// the pending view are in (§2.3.5's first refinement).
func (r *Replica) checkVCQuorumTimer() {
	if !r.vc.pending || r.vc.timerArmed {
		return
	}
	if len(r.vc.forView) >= r.log.Quorum() {
		r.vc.timerArmed = true
		r.vcTimerDeadline = time.Now().Add(r.vc.waitTimeout)
	}
}

func (r *Replica) onViewChangeAck(ack *message.ViewChangeAck) {
	if ack.View != r.view || r.primary(r.view) != r.id {
		return
	}
	// Source is the view-change originator the ack vouches for — a claimed
	// ID, not the authenticated sender — and in MAC mode even the sender ID
	// only proves key possession, not membership. Range-check both before
	// they key a map.
	if int(ack.Source) >= r.n || int(ack.Replica) >= r.n {
		return
	}
	m := r.vc.acks[ack.Source]
	if m == nil {
		m = make(map[message.NodeID]bool)
		r.vc.acks[ack.Source] = m
	}
	m[ack.Replica] = true
	if vc, ok := r.vc.forView[ack.Source]; ok {
		r.countAcksFor(vc)
		r.runPrimaryDecision()
	}
}

// countAcksFor promotes src's view-change into S once 2f-1 acks from other
// replicas match it (together with the message itself and the primary's
// implicit ack that is a quorum, §3.2.4).
func (r *Replica) countAcksFor(vc *message.ViewChange) {
	if _, ok := r.vc.s[vc.Replica]; ok {
		return
	}
	d := vc.Digest()
	count := 0
	for acker := range r.vc.acks[vc.Replica] {
		if acker != r.id && acker != vc.Replica {
			count++
		}
	}
	_ = d
	if count >= quorum.Acks(r.f) {
		r.vc.s[vc.Replica] = vc
	}
}

// decision is the outcome of the Fig 3-3 procedure.
type decision struct {
	ok         bool
	ckptSeq    message.Seq
	ckptDigest crypto.Digest
	x          []message.SeqDigest
}

// runDecision executes the decision procedure of Fig 3-3 over the set S.
// It is a pure function of S so backups can re-verify the primary's choice.
func (r *Replica) runDecision(S map[message.NodeID]*message.ViewChange) decision {
	if len(S) < r.log.Quorum() {
		return decision{}
	}
	msgs := make([]*message.ViewChange, 0, len(S))
	for _, vc := range S {
		msgs = append(msgs, vc)
	}
	sort.Slice(msgs, func(i, j int) bool { return msgs[i].Replica < msgs[j].Replica })

	// Checkpoint selection: highest (n,d) such that 2f+1 messages have
	// h <= n and f+1 messages list (n,d) in C.
	type cand struct {
		seq message.Seq
		d   crypto.Digest
	}
	counts := make(map[cand]int)
	for _, m := range msgs {
		for _, c := range m.Ckpts {
			counts[cand{c.Seq, c.Digest}]++
		}
	}
	best := cand{}
	bestOK := false
	for c, cnt := range counts {
		if cnt < r.log.Weak() {
			continue
		}
		reach := 0
		for _, m := range msgs {
			if m.H <= c.seq {
				reach++
			}
		}
		if reach < r.log.Quorum() {
			continue
		}
		if !bestOK || c.seq > best.seq ||
			(c.seq == best.seq && bytes.Compare(c.d[:], best.d[:]) > 0) {
			best = c
			bestOK = true
		}
	}
	if !bestOK {
		return decision{}
	}
	h := best.seq

	// Per-sequence-number selection for (h, h+L].
	var x []message.SeqDigest
	maxN := h
	for n := h + 1; n <= h+r.log.LogSize(); n++ {
		// Candidates: P entries for n across S, tried in deterministic
		// order (view desc, digest desc).
		type pc struct {
			d crypto.Digest
			v message.View
		}
		var cands []pc
		seen := make(map[pc]bool)
		for _, m := range msgs {
			if p, ok := m.PEntry(n); ok {
				c := pc{p.Digest, p.View}
				if !seen[c] {
					seen[c] = true
					cands = append(cands, c)
				}
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].v != cands[j].v {
				return cands[i].v > cands[j].v
			}
			return bytes.Compare(cands[i].d[:], cands[j].d[:]) > 0
		})

		chosen := false
		var chosenD crypto.Digest
		for _, c := range cands {
			// A1: 2f+1 messages with h < n whose P entry for n (if any) is
			// older than v or matches (v,d).
			a1 := 0
			for _, m := range msgs {
				if m.H >= n {
					continue
				}
				ok := true
				if p, has := m.PEntry(n); has {
					if !(p.View < c.v || (p.View == c.v && p.Digest == c.d)) {
						ok = false
					}
				}
				if ok {
					a1++
				}
			}
			if a1 < r.log.Quorum() {
				continue
			}
			// A2: f+1 messages whose Q entry for n vouches (d, v' >= v).
			a2 := 0
			for _, m := range msgs {
				if q, has := m.QEntry(n); has {
					for _, e := range q.Entries {
						if e.Digest == c.d && e.View >= c.v {
							a2++
							break
						}
					}
				}
			}
			if a2 < r.log.Weak() {
				continue
			}
			chosen = true
			chosenD = c.d
			break
		}
		if chosen {
			x = append(x, message.SeqDigest{Seq: n, Digest: chosenD})
			if n > maxN {
				maxN = n
			}
			continue
		}
		// B: 2f+1 messages with h < n and no P entry for n — null request.
		b := 0
		for _, m := range msgs {
			if m.H < n {
				if _, has := m.PEntry(n); !has {
					b++
				}
			}
		}
		if b >= r.log.Quorum() {
			x = append(x, message.SeqDigest{Seq: n, Digest: crypto.ZeroDigest})
			continue
		}
		return decision{} // undecidable yet: wait for more view-changes
	}

	// Trim trailing nulls beyond the last real selection.
	for len(x) > 0 && x[len(x)-1].Seq > maxN {
		x = x[:len(x)-1]
	}
	return decision{ok: true, ckptSeq: h, ckptDigest: best.d, x: x}
}

// runPrimaryDecision tries to build and send the new-view message.
func (r *Replica) runPrimaryDecision() {
	if !r.vc.pending || r.primary(r.view) != r.id || r.vc.sentNewView {
		return
	}
	dec := r.runDecision(r.vc.s)
	if !dec.ok {
		return
	}
	// A3: the primary must hold every chosen batch body — including the
	// separately-transmitted request bodies — before proposing. Empty
	// batches are synthesizable; missing ones are fetched by digest from
	// the peers whose view-changes vouched for them.
	missing := false
	for _, xd := range dec.x {
		if xd.Digest.IsZero() || xd.Digest == emptyBatchDigest {
			continue
		}
		batch := r.vc.batchStore[xd.Digest]
		if batch == nil {
			missing = true
			r.requestBatchBody(xd.Digest)
			continue
		}
		if !r.haveSeparateBodies(batch) {
			missing = true // status/client retransmission brings the bodies
		}
	}
	if missing {
		return
	}
	nv := &message.NewView{
		View:       r.view,
		CkptSeq:    dec.ckptSeq,
		CkptDigest: dec.ckptDigest,
		X:          dec.x,
		Replica:    r.id,
	}
	ids := make([]message.NodeID, 0, len(r.vc.s))
	for id := range r.vc.s {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		nv.V = append(nv.V, message.VCSummary{Replica: id, VCDigest: r.vc.s[id].Digest()})
	}
	r.vc.sentNewView = true
	r.multicastReplicas(nv)
	r.enterNewView(nv)
}

func (r *Replica) onNewView(nv *message.NewView) {
	if nv.Replica != r.primary(nv.View) || nv.View == 0 {
		return
	}
	if nv.View < r.view || (nv.View == r.view && !r.vc.pending) {
		return
	}
	if nv.View > r.view {
		// Join the view change so our own P/Q history is in the mix, then
		// verify the stashed new-view as messages arrive.
		r.startViewChange(nv.View)
		r.vc.stashedNV = nv
		r.tryProcessStashedNewView()
		return
	}
	r.vc.stashedNV = nv
	r.tryProcessStashedNewView()
}

// tryProcessStashedNewView verifies a candidate new-view once every
// referenced view-change message is available (§3.2.4: backups re-run the
// decision procedure).
func (r *Replica) tryProcessStashedNewView() {
	nv := r.vc.stashedNV
	if nv == nil || !r.vc.pending || nv.View != r.view {
		return
	}
	if r.primary(r.view) == r.id {
		return // the primary built its own
	}
	S := make(map[message.NodeID]*message.ViewChange, len(nv.V))
	for _, ref := range nv.V {
		vc, ok := r.vc.forView[ref.Replica]
		if !ok || vc.Digest() != ref.VCDigest {
			return // missing or mismatched: wait for retransmission
		}
		S[ref.Replica] = vc
	}
	if len(S) < r.log.Quorum() {
		return
	}
	dec := r.runDecision(S)
	if !dec.ok || dec.ckptSeq != nv.CkptSeq || dec.ckptDigest != nv.CkptDigest ||
		len(dec.x) != len(nv.X) {
		r.vc.stashedNV = nil
		r.startViewChange(r.view + 1) // bad new-view: replace the primary
		return
	}
	for i := range dec.x {
		if dec.x[i] != nv.X[i] {
			r.vc.stashedNV = nil
			r.startViewChange(r.view + 1)
			return
		}
	}
	r.vc.stashedNV = nil
	r.enterNewView(nv)
}

// requestBatchBody multicasts a content-addressed fetch for a batch the
// decision procedure selected but we never received.
func (r *Replica) requestBatchBody(d crypto.Digest) {
	r.vc.wantBatches[d] = true
	bf := &message.BatchFetch{Digest: d, Replica: r.id}
	r.multicastReplicas(bf)
}

// onBatchFetch serves a stored batch body by digest.
func (r *Replica) onBatchFetch(bf *message.BatchFetch) {
	if bf.Replica == r.id {
		return
	}
	pp, ok := r.vc.batchStore[bf.Digest]
	if !ok || !r.haveSeparateBodies(pp) {
		return
	}
	// Bundle the separately-transmitted request bodies the requester will
	// also need.
	for _, d := range pp.Digests {
		if req, ok := r.log.Request(d); ok {
			r.sendRaw(bf.Replica, req)
		}
	}
	r.sendRaw(bf.Replica, &message.BatchBody{Batch: pp.Marshal(), Replica: r.id})
}

// onBatchBody installs a fetched batch after verifying its content hash.
func (r *Replica) onBatchBody(bb *message.BatchBody) {
	m, err := message.Unmarshal(bb.Batch)
	if err != nil {
		return
	}
	pp, ok := m.(*message.PrePrepare)
	if !ok {
		return
	}
	d := pp.BatchDigest()
	if !r.vc.wantBatches[d] {
		return // unsolicited
	}
	delete(r.vc.wantBatches, d)
	for i := range pp.Inline {
		r.log.StoreRequest(&pp.Inline[i])
	}
	r.rememberBatch(pp)
	if r.vc.pending {
		r.runPrimaryDecision()
		r.tryProcessStashedNewView()
	}
}

// enterNewView installs an accepted new-view message: the replica becomes
// active in the view, slots are rebuilt from X, and backups prepare every
// chosen batch (§3.2.4 "new-view message processing").
func (r *Replica) enterNewView(nv *message.NewView) {
	r.vc.newView = nv
	r.vc.pending = false
	r.vc.wantBatches = make(map[crypto.Digest]bool)
	r.active = true
	r.vcTimerDeadline = time.Time{}
	r.metrics.NewViewsProcessed++

	// Log the transition before any send below: a restart that replays this
	// record resumes ACTIVE in the new view (replaying the pending record
	// alone would re-multicast the view change — harmless but slower). The
	// X-entry pre-prepares and own prepares are re-logged as the loop
	// installs them, so replay rebuilds the new view's slots too.
	r.walView(nv.View, true)
	r.walBarrier()

	h := nv.CkptSeq

	// If the chosen checkpoint is ahead of us, fetch it (§5.3.2); the slots
	// are installed regardless so the protocol can proceed.
	if r.ckpt.Latest().Seq < h || r.lastExec < h {
		if _, ok := r.ownCkptDigest(h); !ok {
			r.startStateTransfer(h, nv.CkptDigest)
		}
	}
	if r.log.Low() < h {
		// The new-view certificate proves h is stable group-wide.
		r.makeStable(h)
	}

	isPrimary := r.primary(r.view) == r.id
	var maxN message.Seq = h
	for _, xd := range nv.X {
		if xd.Seq > maxN {
			maxN = xd.Seq
		}
		if xd.Seq <= r.log.Low() {
			continue
		}
		slot := r.log.Slot(xd.Seq)
		if slot == nil {
			continue
		}
		slot.AddDigestOnly(nv.View, xd.Digest)
		slot.PrePrepared = true

		if xd.Digest.IsZero() {
			// Null request: synthesize the body locally (§2.3.5).
			slot.PrePrepare = &message.PrePrepare{
				View: nv.View, Seq: xd.Seq,
				Digests: []crypto.Digest{crypto.ZeroDigest},
				Replica: r.primary(nv.View),
			}
			// Null batches hash differently from stored batches; fix the
			// slot digest to the declared zero value.
			slot.Digest = crypto.ZeroDigest
		} else if xd.Digest == emptyBatchDigest {
			// Empty batch (e.g. recovery null batches): synthesizable.
			slot.PrePrepare = &message.PrePrepare{
				View: nv.View, Seq: xd.Seq, Replica: r.primary(nv.View),
			}
		} else if old, ok := r.vc.batchStore[xd.Digest]; ok {
			// Re-propose the stored batch content under the new view.
			pp := &message.PrePrepare{
				View: nv.View, Seq: xd.Seq,
				Inline: old.Inline, Digests: old.Digests, NonDet: old.NonDet,
				Replica: r.primary(nv.View),
			}
			slot.PrePrepare = pp
		}

		if slot.PrePrepare != nil {
			r.walPrePrepare(slot.PrePrepare)
		}

		if !isPrimary {
			slot.SentPrepare = true
			r.walVote(wal.KindPrepare, nv.View, xd.Seq, r.id, xd.Digest)
			r.multicastReplicas(r.ownPrepare(nv.View, xd.Seq, xd.Digest))
			slot.AddPrepare(r.id, nv.View, xd.Digest)
		}

		// Skip re-execution of batches we already executed with the same
		// digest (committed before the view change).
		if rec, ok := r.execRecords[xd.Seq]; ok && xd.Seq <= r.lastExec {
			if rec.digest == slot.Digest && !rec.tentative {
				slot.Executed = true
			}
		}
	}

	if isPrimary {
		r.seqno = maxN
		// Re-issue pre-prepares for the chosen batches so backups that lack
		// the bodies obtain them under the new view's authentication.
		for _, xd := range nv.X {
			if xd.Digest.IsZero() || xd.Seq <= r.log.Low() {
				continue
			}
			if slot, ok := r.log.Peek(xd.Seq); ok && slot.PrePrepare != nil {
				r.multicastReplicas(slot.PrePrepare)
			}
		}
	}

	// Record Q entries for the new view: everything in X pre-prepared here.
	r.computePQ()

	r.executeForward()
	r.updateVCTimer()
	if isPrimary {
		r.tryIssuePrePrepares()
	}
}
