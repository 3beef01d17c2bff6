package pbft

import (
	"encoding/binary"
	"sort"
	"time"

	"repro/internal/message"
	"repro/internal/quorum"
	"repro/internal/vlog"
)

// recoveryPhase tracks the recovering replica's progress through §4.3.2.
type recoveryPhase int

const (
	recIdle recoveryPhase = iota
	recEstimating
	recRequesting
	recChecking
	recWaitingStable
)

// recoveryState is the BFT-PR bookkeeping.
type recoveryState struct {
	inRecovery bool
	phase      recoveryPhase
	startedAt  time.Time

	// Simulated secure co-processor: the signing key lives in Replica.kp;
	// the monotonic counter is here (§4.2).
	coCounter uint64
	epoch     uint32

	// Estimation protocol.
	estNonce   uint64
	estMinC    map[message.NodeID]message.Seq
	estMaxP    map[message.NodeID]message.Seq
	hM         message.Seq
	estStarted time.Time

	// Recovery request tracking. The recovering replica collects replies to
	// its own recovery request exactly like a client (§4.3.2): it may learn
	// the request's sequence number from the replies rather than from local
	// execution (e.g. when it caught up via state transfer).
	recoveryTs    uint64
	recoverySeq   message.Seq // sequence number the request executed at
	recoveryPoint message.Seq
	reqRaw        []byte                    // marshaled recovery request, for retransmission
	reqSentAt     time.Time                 // last (re)transmission
	replies       map[message.NodeID]uint64 // replica -> reported exec seq

	// Server-side: rate limiting of peers' recovery requests (§4.3.2) and
	// the set of replicas currently recovering (drives null-request
	// generation so recovery finishes on an idle system).
	lastRecoveryFrom map[message.NodeID]time.Time
	recovering       map[message.NodeID]message.Seq // replica -> recovery point
	lastNewKeyCtr    map[message.NodeID]uint64

	nullBatchDeadline time.Time
}

func (r *Replica) initRecoveryState() {
	r.rec = recoveryState{
		estMinC:          make(map[message.NodeID]message.Seq),
		estMaxP:          make(map[message.NodeID]message.Seq),
		lastRecoveryFrom: make(map[message.NodeID]time.Time),
		recovering:       make(map[message.NodeID]message.Seq),
		lastNewKeyCtr:    make(map[message.NodeID]uint64),
	}
}

// ---------------------------------------------------------------------------
// Key refreshment (§4.3.1)
// ---------------------------------------------------------------------------

// refreshKeys generates fresh in-keys for every replica peer and announces
// them in a signed new-key message.
func (r *Replica) refreshKeys() {
	r.rec.epoch++
	r.rec.coCounter++
	nk := &message.NewKey{
		Replica: r.id,
		Epoch:   r.rec.epoch,
		Counter: r.rec.coCounter,
	}
	var seeds []uint64
	for i := 0; i < r.n; i++ {
		peer := message.NodeID(i)
		if peer == r.id {
			continue
		}
		seed := r.rng.Uint64()
		key := r.ks.RefreshIn(uint32(peer), r.rec.epoch, seed)
		seeds = append(seeds, seed)
		nk.Peers = append(nk.Peers, peer)
		nk.Keys = append(nk.Keys, key)
	}
	// Durable first (counter + seeds, with a barrier): once the
	// announcement escapes, peers hold us to this counter and these
	// in-keys forever — a restart that forgot them would be deaf (old
	// in-keys rejected) and mute (counter reuse suppressed as replay).
	r.walKeyRefresh(seeds)
	r.multicastSigned(nk) // signed by the co-processor
}

// onNewKey installs the fresh key a peer chose for our traffic to it.
func (r *Replica) onNewKey(nk *message.NewKey) {
	// MAC-mode session keys derive for ANY principal ID: authentication
	// proves key possession, not group membership. Bound the claimed ID
	// before it keys the counter map and the WAL bookkeeping.
	if nk.Replica == r.id || int(nk.Replica) >= r.n || len(nk.Peers) != len(nk.Keys) {
		return
	}
	// Suppress-replay defense: the co-processor counter must advance.
	if nk.Counter <= r.rec.lastNewKeyCtr[nk.Replica] {
		return
	}
	r.rec.lastNewKeyCtr[nk.Replica] = nk.Counter
	for i, p := range nk.Peers {
		if p == r.id {
			r.ks.SetOut(uint32(nk.Replica), nk.Keys[i], nk.Epoch)
			// The peer forgot its old in-key the moment it rotated:
			// survive a crash holding the new one.
			r.walNewKey(nk.Replica, nk.Epoch, nk.Counter, nk.Keys[i])
		}
	}
}

// ---------------------------------------------------------------------------
// Recovery (§4.3.2)
// ---------------------------------------------------------------------------

// Recover triggers proactive recovery immediately (the watchdog also calls
// this on its period).
func (r *Replica) Recover() {
	r.do(func() { r.startRecovery() })
}

// Recovering reports whether a recovery is in progress.
func (r *Replica) Recovering() bool {
	var b bool
	r.do(func() { b = r.rec.inRecovery })
	return b
}

// startRecovery begins the §4.3.2 sequence: "reboot", re-key, estimate,
// request, check state, and wait for a stable checkpoint at the recovery
// point. The replica keeps participating throughout, as the thesis requires
// for the common case where it was not actually faulty.
func (r *Replica) startRecovery() {
	if r.rec.inRecovery {
		return
	}
	r.metrics.Recoveries++
	r.rec.inRecovery = true
	r.rec.startedAt = time.Now()

	// "Reboot": volatile non-certificate protocol state is rebuilt; the
	// saved state (region, checkpoints, log) survives. A recovering primary
	// first hands off its view (§4.3.2).
	if r.isPrimary() && r.active {
		r.startViewChange(r.view + 1)
	}

	// Change the keys others use to talk to us: a compromised replica's
	// keys are known to the attacker.
	r.refreshKeys()

	// Estimation protocol for H_M.
	r.rec.phase = recEstimating
	r.rec.estNonce = r.rng.Uint64()
	r.rec.estMinC = make(map[message.NodeID]message.Seq)
	r.rec.estMaxP = make(map[message.NodeID]message.Seq)
	r.rec.estStarted = time.Now()
	q := &message.QueryStable{Replica: r.id, Nonce: r.rec.estNonce}
	r.multicastReplicas(q)
}

func (r *Replica) onQueryStable(q *message.QueryStable) {
	if q.Replica == r.id {
		return
	}
	rs := &message.ReplyStable{
		LastCkpt:     r.log.Low(),
		LastPrepared: r.highestPrepared(),
		Replica:      r.id,
		Nonce:        q.Nonce,
	}
	r.sendTo(q.Replica, rs)
}

// highestPrepared returns the largest sequence number with a prepared
// certificate in the log.
func (r *Replica) highestPrepared() message.Seq {
	maxP := r.log.Low()
	r.log.Slots(func(s *vlog.Slot) {
		if s.Prepared && s.Seq > maxP {
			maxP = s.Seq
		}
	})
	return maxP
}

func (r *Replica) onReplyStable(rs *message.ReplyStable) {
	if !r.rec.inRecovery || r.rec.phase != recEstimating || rs.Nonce != r.rec.estNonce {
		return
	}
	// Only group members answer QueryStable; in MAC mode any principal that
	// holds a session key can authenticate, so bound the claimed replica ID
	// before it keys the estimation maps.
	if int(rs.Replica) >= r.n {
		return
	}
	// Track min c and max p per replica (§4.3.2).
	if cur, ok := r.rec.estMinC[rs.Replica]; !ok || rs.LastCkpt < cur {
		r.rec.estMinC[rs.Replica] = rs.LastCkpt
	}
	if cur, ok := r.rec.estMaxP[rs.Replica]; !ok || rs.LastPrepared > cur {
		r.rec.estMaxP[rs.Replica] = rs.LastPrepared
	}
	r.tryFinishEstimation()
}

// tryFinishEstimation selects s_M: a value c from some replica such that 2f
// other replicas reported checkpoints <= c and f other replicas reported
// prepared numbers >= c. H_M = L + s_M bounds any honest high water mark.
func (r *Replica) tryFinishEstimation() {
	// Include our own values.
	r.rec.estMinC[r.id] = r.log.Low()
	r.rec.estMaxP[r.id] = r.highestPrepared()

	// Several candidates can satisfy the predicate simultaneously (peers
	// legitimately report different checkpoints); scan them in node-id order
	// so every seeded run picks the same s_M.
	cands := make([]message.NodeID, 0, len(r.rec.estMinC))
	for cand := range r.rec.estMinC {
		cands = append(cands, cand)
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	for _, cand := range cands {
		c := r.rec.estMinC[cand]
		le, ge := 0, 0
		for peer, v := range r.rec.estMinC {
			if peer != cand && v <= c {
				le++
			}
		}
		for peer, v := range r.rec.estMaxP {
			if peer != cand && v >= c {
				ge++
			}
		}
		if le >= quorum.StrongOthers(r.f) && ge >= quorum.WeakOthers(r.f) {
			r.finishEstimation(c)
			return
		}
	}
}

func (r *Replica) finishEstimation(sM message.Seq) {
	r.rec.hM = sM + r.log.LogSize()
	r.rec.phase = recRequesting

	// Discard any log entries and checkpoints above H_M: they may be
	// fabrications of an attacker who controlled this replica.
	r.log.Slots(func(s *vlog.Slot) {
		if s.Seq > r.rec.hM {
			s.Executed = false
		}
	})

	// Multicast the signed recovery request through the normal protocol.
	r.rec.coCounter++
	r.rec.recoveryTs = r.rec.coCounter
	var op [8]byte
	binary.LittleEndian.PutUint64(op[:], uint64(r.rec.hM))
	req := &message.Request{
		Client:    r.id,
		Timestamp: r.rec.recoveryTs,
		Flags:     message.FlagRecovery,
		Replier:   message.NoNode,
		Op:        op[:],
	}
	r.authSigned(req)
	r.rec.reqRaw = req.Marshal()
	r.rec.reqSentAt = time.Now()
	r.rec.replies = make(map[message.NodeID]uint64)
	r.multicastRawBytes(r.rec.reqRaw)
	// Process our own copy so we queue it like everyone else.
	r.onRequest(req)
}

// noteRecoveryRequest rate-limits recovery requests (denial-of-service
// defense: one per peer per half watchdog period, §4.3.2).
func (r *Replica) noteRecoveryRequest(req *message.Request) {
	last := r.rec.lastRecoveryFrom[req.Client]
	minGap := r.cfg.WatchdogInterval / 2
	if minGap == 0 {
		minGap = 50 * time.Millisecond
	}
	if !last.IsZero() && time.Since(last) < minGap {
		// Drop from the queue: handled by leaving it unqueued. (The request
		// was already stored; the primary simply won't batch it again.)
		return
	}
	// Recovery requests are co-processor signed and verified against the
	// directory (verifySig): unknown principals have no public key, so the
	// rate-limit map is bounded by registered membership.
	r.rec.lastRecoveryFrom[req.Client] = time.Now() // bftlint:allow=bfttaint
}

// recoveryRequestEffects applies the protocol-side effects of a recovery
// request that executed at seq (§4.3.2): every other replica refreshes its
// session keys, and the recovering replica learns the request's sequence
// number. Its reply carries recoveryResult(seq); recovery requests never
// touch the Region.
func (r *Replica) recoveryRequestEffects(req *message.Request, seq message.Seq) {
	recoverer := req.Client
	if recoverer != r.id {
		// Keys we chose for the recovering replica may be known to the
		// attacker; refresh them.
		r.refreshKeys()
		target := (seq/r.cfg.CheckpointInterval+1)*r.cfg.CheckpointInterval + r.log.LogSize()
		r.rec.recovering[recoverer] = target
		r.armNullBatches()
	} else if r.rec.inRecovery && r.rec.phase == recRequesting {
		r.finishRecoveryRequest(seq)
	}
}

// recoveryResult encodes a recovery request's reply: the sequence number it
// executed at.
func recoveryResult(seq message.Seq) []byte {
	var out [8]byte
	binary.LittleEndian.PutUint64(out[:], uint64(seq))
	return out[:]
}

// finishRecoveryRequest records the sequence number the recovery request
// executed at and moves on to state checking.
func (r *Replica) finishRecoveryRequest(seq message.Seq) {
	if !r.rec.inRecovery || r.rec.phase != recRequesting {
		return
	}
	r.rec.recoverySeq = seq
	hRec := (seq/r.cfg.CheckpointInterval+1)*r.cfg.CheckpointInterval + r.log.LogSize()
	r.rec.recoveryPoint = maxSeq(r.rec.hM, hRec)
	r.startStateCheck()
}

// onRecoveryReply collects replies to our own recovery request (§4.3.2): a
// weak certificate of f+1 matching results tells us the sequence number it
// executed at even if we never executed it locally (we may have skipped
// those batches via state transfer).
func (r *Replica) onRecoveryReply(rep *message.Reply) {
	if !r.rec.inRecovery || r.rec.phase != recRequesting {
		return
	}
	if rep.Client != r.id || rep.Timestamp != r.rec.recoveryTs || !rep.HasResult {
		return
	}
	if len(rep.Result) != 8 {
		return
	}
	// Replies come from group members; bound the claimed replica ID before
	// it keys the reply map (MAC possession alone does not prove membership).
	if int(rep.Replica) >= r.n {
		return
	}
	if r.rec.replies == nil {
		r.rec.replies = make(map[message.NodeID]uint64)
	}
	r.rec.replies[rep.Replica] = binary.LittleEndian.Uint64(rep.Result)
	counts := make(map[uint64]int)
	for _, v := range r.rec.replies {
		counts[v]++
	}
	// At most one value can carry an honest f+1 certificate, but scan in
	// sorted order anyway: the reply set a Byzantine peer controls must not
	// get to vary the scan through map iteration order.
	seqs := make([]uint64, 0, len(counts))
	for s := range counts {
		seqs = append(seqs, s)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, seq := range seqs {
		if counts[seq] >= quorum.Weak(r.f) {
			r.finishRecoveryRequest(message.Seq(seq))
			return
		}
	}
}

func maxSeq(a, b message.Seq) message.Seq {
	if a > b {
		return a
	}
	return b
}

// startStateCheck verifies the local state against the partition tree and
// repairs corruption via state transfer (§5.3.3).
func (r *Replica) startStateCheck() {
	r.rec.phase = recChecking
	bad := r.ckpt.RecomputeFull()
	if len(bad) > 0 {
		// Pages whose content no longer matches their digest were corrupted
		// behind the library's back. Fetch the latest stable checkpoint;
		// the per-page comparison inside the transfer re-fetches exactly
		// the damaged pages.
		low := r.log.Low()
		if d, ok := r.ownCkptDigest(low); ok {
			// Invalidate the bad pages' live digests so the transfer diff
			// sees them as stale.
			for _, p := range bad {
				r.ckpt.InstallPage(p, 0, r.region.Page(p))
			}
			r.startStateTransfer(low, d)
		}
	}
	r.rec.phase = recWaitingStable
	r.recoveryCheckpointStable(r.log.Low())
}

// recoveryCheckpointStable completes recovery once a checkpoint at or above
// the recovery point is stable (§4.3.2: "replica i is recovered when the
// checkpoint with sequence number H is stable").
func (r *Replica) recoveryCheckpointStable(stable message.Seq) {
	if r.rec.inRecovery && r.rec.phase == recWaitingStable && stable >= r.rec.recoveryPoint {
		r.rec.inRecovery = false
		r.rec.phase = recIdle
		r.metrics.RecoveriesCompleted++
		r.metrics.LastRecoveryTime = time.Since(r.rec.startedAt)
	}
	// Server side: drop peers whose recovery point has been reached.
	for peer, target := range r.rec.recovering {
		if stable >= target {
			delete(r.rec.recovering, peer)
		}
	}
}

// armNullBatches schedules null-request generation at the primary while any
// replica is recovering, so recovery completes on an idle system (§4.3.2).
func (r *Replica) armNullBatches() {
	if len(r.rec.recovering) > 0 && r.rec.nullBatchDeadline.IsZero() {
		r.rec.nullBatchDeadline = time.Now().Add(10 * time.Millisecond)
	}
}

// recoveryTick drives estimation retries, recovery-request retransmission,
// and null-batch generation.
func (r *Replica) recoveryTick(now time.Time) {
	if r.rec.inRecovery && r.rec.phase == recEstimating &&
		now.Sub(r.rec.estStarted) > 100*time.Millisecond {
		// Retransmit the query (lost replies).
		r.rec.estStarted = now
		q := &message.QueryStable{Replica: r.id, Nonce: r.rec.estNonce}
		r.multicastReplicas(q)
	}
	if r.rec.inRecovery && r.rec.phase == recRequesting && r.rec.reqRaw != nil &&
		now.Sub(r.rec.reqSentAt) > 300*time.Millisecond {
		// The recovery request can be lost across view changes; retransmit
		// it (same co-processor timestamp, so execution stays idempotent).
		r.rec.reqSentAt = now
		r.multicastRawBytes(r.rec.reqRaw)
	}

	if len(r.rec.recovering) == 0 {
		r.rec.nullBatchDeadline = time.Time{}
		return
	}
	if r.rec.nullBatchDeadline.IsZero() || now.Before(r.rec.nullBatchDeadline) {
		r.armNullBatches()
		return
	}
	r.rec.nullBatchDeadline = now.Add(10 * time.Millisecond)
	if r.isPrimary() && r.active && r.queue.Len() == 0 && r.seqno < r.log.High() &&
		r.seqno < r.lastExec+r.cfg.window() {
		// Issue a null batch: an empty batch whose execution is a no-op but
		// advances sequence numbers toward the next checkpoint.
		r.seqno++
		pp := &message.PrePrepare{View: r.view, Seq: r.seqno, Replica: r.id,
			NonDet: r.service.ProposeNonDet()}
		r.multicastReplicas(pp)
		r.acceptPrePrepare(pp)
	}
}
