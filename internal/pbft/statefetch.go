package pbft

import (
	"sort"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/vlog"
)

// fetchTimeout bounds one fetch round-trip before retrying with a different
// designated replier.
const fetchTimeout = 150 * time.Millisecond

// retargetGrace is how long a weak certificate for a checkpoint ahead of the
// current fetch target must stand before an ACTIVE transfer is re-pointed at
// it (the same grace that gates starting a transfer at all: a transfer that
// is completing normally should not thrash between targets).
const retargetGrace = 4 * fetchTimeout

// statusBitmapBits caps the per-status retransmission window.
const statusBitmapBits = 256

// fetchItem is one partition awaiting transfer. While in flight it carries
// its own designated replier and timeout, so one Byzantine or dead replier
// only stalls its own items until their individual timeouts rotate them to a
// new replier.
type fetchItem struct {
	level  int
	index  uint64
	digest crypto.Digest // expected digest (from the parent's meta-data)
	// origin authored the meta-data this expectation came from (NoNode for
	// the root, whose digest comes from the weak certificate). Meta-data is
	// point-MAC'd, so origin is authentic — if the item exhausts its retry
	// budget the expectation itself is suspect (the order-insensitive child
	// sum cannot bind WHICH digest pairs with WHICH child index, so a
	// digest-valid interior reply can still poison the pairings) and origin
	// takes the blame while the recursion restarts from the root.
	origin message.NodeID

	replier message.NodeID // designated replier this item was assigned to
	sentAt  time.Time
	retries int
}

// fetchKey identifies one partition of the tree — the matching key for
// out-of-order MetaData/Data replies against the in-flight window.
type fetchKey struct {
	level int
	index uint64
}

// fetchState drives the hierarchical state transfer of §5.3.2. The paper
// fetches partitions "in parallel from all replicas" (§6.2.2); here a window
// of fetchWindow items is kept in flight, striped across distinct repliers
// round-robin.
type fetchState struct {
	active       bool
	target       message.Seq   // checkpoint being fetched
	targetDigest crypto.Digest // H(root, extra) from the weak certificate
	rootVerified bool
	extra        []byte

	// candidate tracks a stable checkpoint ahead of us that we might still
	// reach by ordinary execution; the fetch starts only if we fail to for
	// a grace period (normal slight lag must not trigger transfers). While
	// a transfer is ACTIVE the candidate doubles as the re-target vote: if
	// a weak certificate forms for a checkpoint beyond the current target —
	// which happens precisely when the target was garbage-collected
	// cluster-wide and can no longer be served — the transfer is re-pointed
	// at it instead of retrying the doomed Fetch forever.
	candSeq    message.Seq
	candDigest crypto.Digest
	candSince  time.Time
	candExec   message.Seq // lastExec when the candidate clock last reset

	// chaseUntil marks catch-up chase mode: right after a transfer seals,
	// the cluster may already have stabilized past the sealed checkpoint
	// (heavy traffic keeps moving the frontier, and the slots below the new
	// stable checkpoint are collected cluster-wide, so ordinary execution
	// can never bridge the gap). While chasing, a STUCK candidate promotes
	// after a short damp instead of the full grace, so seal-to-seal cycles
	// shrink geometrically — each transfer only moves the pages dirtied
	// during the previous cycle — until live execution takes over. Without
	// this a lagging replica oscillates one grace period behind a loaded
	// cluster forever.
	chaseUntil time.Time

	queue    []fetchItem             // partitions not yet requested
	inflight map[fetchKey]*fetchItem // requested, awaiting replies
	rr       int                     // round-robin cursor striping repliers

	// strikes counts per-replier timeouts and verifiably-bad replies.
	// assignReplier prefers repliers with the fewest strikes, so a
	// Byzantine or dead replier is deprioritized instead of being re-drawn
	// uniformly. Strikes only bias replier selection — safety always comes
	// from the digest checks — and decay on successful service.
	strikes map[message.NodeID]int

	startedAt time.Time
	prevExec  message.Seq // lastExec when the transfer started
}

func (r *Replica) initFetchState() { r.fetch = fetchState{} }

// startStateTransfer begins fetching checkpoint seq whose combined digest
// (root+extra) is d, learned from a weak certificate or a new-view message.
// Called with seq beyond an ACTIVE transfer's target it re-points the
// transfer: the fetch plan (queue + window) describes the old target's tree
// and is discarded, but installed pages, per-replier strikes, and the
// transfer clock carry over — progress is monotone across re-targets
// because already-matching partitions are skipped by the live-digest diff.
func (r *Replica) startStateTransfer(seq message.Seq, d crypto.Digest) {
	f := &r.fetch
	if f.active && f.target >= seq {
		return
	}
	r.metrics.StateTransfers++
	startedAt, prevExec := time.Now(), r.lastExec
	strikes, rr, chase := f.strikes, f.rr, f.chaseUntil
	if f.active {
		// Re-target: keep the transfer clock and replier quality history.
		startedAt, prevExec = f.startedAt, f.prevExec
	}
	if strikes == nil {
		strikes = make(map[message.NodeID]int)
	}
	r.fetch = fetchState{
		active:       true,
		target:       seq,
		targetDigest: d,
		queue:        []fetchItem{{level: 0, index: 0, origin: message.NoNode}},
		inflight:     make(map[fetchKey]*fetchItem),
		rr:           rr,
		strikes:      strikes,
		chaseUntil:   chase,
		startedAt:    startedAt,
		prevExec:     prevExec,
	}
	r.fillFetchWindow()
}

// assignReplier picks the designated replier for one item: round-robin over
// the repliers with the FEWEST strikes, never self and never `not` (the
// replier being rotated away from). Strikes gate the eligible set rather
// than picking a strict global minimum — a strict minimum would funnel an
// entire window refill onto one lucky replica, recreating the serial
// single-replier bottleneck the window exists to avoid.
func (r *Replica) assignReplier(not message.NodeID) message.NodeID {
	f := &r.fetch
	min := -1
	for c := 0; c < r.n; c++ {
		id := message.NodeID(c)
		if id == r.id || id == not {
			continue
		}
		if s := f.strikes[id]; min < 0 || s < min {
			min = s
		}
	}
	for k := 0; k < r.n; k++ {
		c := message.NodeID((f.rr + k) % r.n)
		if c == r.id || c == not {
			continue
		}
		if f.strikes[c] == min {
			f.rr = int(c) + 1
			return c
		}
	}
	return message.NoNode // unreachable: n >= 4 always leaves a candidate
}

// fillFetchWindow refills the in-flight window from the queue, skipping
// partitions that already match locally.
func (r *Replica) fillFetchWindow() {
	f := &r.fetch
	if !f.active {
		return
	}
	want := fetchWindow - len(f.inflight)
	var admit []fetchItem
	for len(f.queue) > 0 && len(admit) < want {
		item := f.queue[0]
		f.queue = f.queue[1:]
		// Skip partitions that already match locally.
		if item.level > 0 && r.ckpt.LiveDigest(item.level, int(item.index)) == item.digest {
			continue
		}
		admit = append(admit, item)
	}
	now := time.Now()
	for i := range admit {
		item := admit[i]
		item.replier = r.assignReplier(message.NoNode)
		item.sentAt = now
		f.inflight[fetchKey{item.level, item.index}] = &item
		r.sendFetchItem(&item)
	}
	if len(f.queue) == 0 && len(f.inflight) == 0 {
		r.finishFetchIfDone()
	}
}

// sendFetchItem multicasts the Fetch for one in-flight item (§5.3.2: the
// request goes to all replicas; Replier names the one that ships full data).
func (r *Replica) sendFetchItem(item *fetchItem) {
	r.multicastReplicas(&message.Fetch{
		Level:     uint8(item.level),
		Index:     item.index,
		LastKnown: r.ckpt.Latest().Seq,
		Target:    r.fetch.target,
		Replier:   item.replier,
		Replica:   r.id,
	})
}

// fetchTick retries timed-out in-flight items with a new designated replier
// and promotes stalled catch-up candidates to transfers (or re-targets an
// active transfer whose target was collected cluster-wide).
func (r *Replica) fetchTick(now time.Time) {
	f := &r.fetch
	if f.candSeq != 0 {
		// Ordinary execution progressing toward the candidate resets the
		// promotion clock: a replica that is actually replaying the gap must
		// not be reset by a transfer it does not need.
		if r.lastExec > f.candExec {
			f.candExec = r.lastExec
			f.candSince = now
		}
		// While chasing a loaded cluster (just sealed a transfer, frontier
		// already moved on) a STUCK candidate promotes almost immediately:
		// waiting the full grace guarantees the next target is a grace
		// period stale by the time it seals, which is the oscillation that
		// keeps a lagging replica from ever catching a busy cluster. The
		// short damp filters the instant between a vote arriving and the
		// next batch executing.
		grace := retargetGrace
		if !f.active && now.Before(f.chaseUntil) {
			grace = fetchTimeout / 8
		}
		switch {
		case r.lastExec >= f.candSeq || (f.active && f.target >= f.candSeq):
			f.candSeq = 0 // caught up, or already fetching at least that far
			// Reaching a candidate by ordinary execution ends the chase:
			// the replica is participating in real time again.
			f.chaseUntil = time.Time{}
		case now.Sub(f.candSince) > grace:
			seq, d := f.candSeq, f.candDigest
			f.candSeq = 0
			r.startStateTransfer(seq, d)
			return
		}
	}
	if !f.active {
		return
	}
	// A whole refill shares one sentAt, so items often time out together;
	// retry them in tree order, not map order, or the round-robin cursor,
	// strike counts, and send schedule diverge run to run on a seeded net.
	keys := make([]fetchKey, 0, len(f.inflight))
	for k, item := range f.inflight {
		if now.Sub(item.sentAt) >= fetchTimeout {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].level != keys[j].level {
			return keys[i].level < keys[j].level
		}
		return keys[i].index < keys[j].index
	})
	for _, k := range keys {
		item := f.inflight[k]
		// Only this item's replier is rotated; the rest of the window keeps
		// its assignments and in-flight requests.
		item.retries++
		r.metrics.FetchRetries++
		f.strikes[item.replier]++
		if item.retries >= 2*r.n && item.origin != message.NoNode {
			// Every replier has had turns and none could satisfy this
			// expectation: the expectation itself is the likely lie (see
			// fetchItem.origin). Blame its authenticated author and restart
			// the recursion — the live-digest diff re-walks only the
			// poisoned subtree, and the origin's strikes steer future
			// parent fetches to honest repliers.
			f.strikes[item.origin]++
			r.restartFetchFromRoot()
			return
		}
		item.replier = r.assignReplier(item.replier)
		item.sentAt = now
		r.sendFetchItem(item)
	}
}

// restartFetchFromRoot rebuilds the fetch plan for the current target from
// the root, keeping installed pages, strikes, and the transfer clock.
func (r *Replica) restartFetchFromRoot() {
	f := &r.fetch
	f.queue = []fetchItem{{level: 0, index: 0, origin: message.NoNode}}
	f.inflight = make(map[fetchKey]*fetchItem)
	f.rootVerified = false
	f.extra = nil
	r.fillFetchWindow()
}

// onFetch serves state to a fetching replica (§5.3.2).
func (r *Replica) onFetch(m *message.Fetch) {
	if m.Replica == r.id {
		return
	}
	snap, ok := r.ckpt.Snapshot(m.Target)
	if m.Replier == r.id && ok {
		r.serveFetch(m, snap.Seq)
		return
	}
	// Non-designated replicas (or ones that discarded the checkpoint)
	// offer their latest stable checkpoint if it is fresher than what
	// the requester has (guarantees progress when m.Target was
	// collected): the meta-data is useful wherever partitions did not
	// change between the doomed target and our stable checkpoint.
	low := r.log.Low()
	if low <= m.LastKnown || low <= m.Target {
		return
	}
	if s2, ok2 := r.ckpt.Snapshot(low); ok2 {
		r.serveFetch(m, s2.Seq)
	}
	// Resend our Checkpoint vote for the stable checkpoint we CAN serve
	// (fresh authenticator, §5.2). The fetcher assembles a weak
	// certificate from f+1 such votes and re-targets its transfer —
	// without this, a fetcher whose target was collected cluster-wide
	// re-sends the same doomed Fetch forever while its peers' fallback
	// meta-data is dropped for digest mismatch.
	if d, ok := r.ownCkptDigest(low); ok {
		r.resendOwn(m.Replica, &message.Checkpoint{Seq: low, Digest: d, Replica: r.id})
	}
}

// serveFetch sends the meta-data (or page data) for one partition at
// checkpoint seq.
func (r *Replica) serveFetch(m *message.Fetch, seq message.Seq) {
	level := int(m.Level)
	leaf := r.ckpt.Levels() - 1
	if level >= leaf {
		// Page request: the designated replier ships the full page; its
		// correctness is checked against the digest the fetcher already
		// verified, so no MAC is needed.
		content, lm, ok := r.ckpt.PageAt(seq, int(m.Index))
		if !ok {
			return
		}
		d := &message.Data{
			Index:   m.Index,
			LastMod: lm,
			Page:    append([]byte(nil), content...),
			Replica: r.id,
		}
		r.sendRaw(m.Replica, d)
		return
	}
	parts, ok := r.ckpt.ChildrenAt(seq, level, int(m.Index))
	if !ok {
		return
	}
	info, _ := r.ckpt.NodeAt(seq, level, int(m.Index))
	md := &message.MetaData{
		Seq:     seq,
		Level:   m.Level,
		Index:   m.Index,
		LastMod: info.LastMod,
		Parts:   parts,
		Replica: r.id,
	}
	if level == 0 {
		if snap, ok := r.ckpt.Snapshot(seq); ok {
			md.Extra = snap.Extra
		}
	}
	r.sendTo(m.Replica, md)
}

// completeFetchItem retires a successfully-served in-flight item: the
// replier's strike count decays (quality signal for assignReplier) and the
// freed window slot is refilled.
func (r *Replica) completeFetchItem(key fetchKey, servedBy message.NodeID) {
	f := &r.fetch
	delete(f.inflight, key)
	if f.strikes[servedBy] > 0 {
		f.strikes[servedBy]--
	}
	r.fillFetchWindow()
}

// onMetaData advances the fetch recursion after verifying the reply against
// the digest learned from the parent (or the weak certificate for the root).
// Replies are matched to in-flight items by (level, index) — out of order
// across the window — and verified purely by digest: a fallback reply served
// at a DIFFERENT checkpoint is accepted wherever the partition did not
// change in between, which is exactly when it is still correct.
func (r *Replica) onMetaData(md *message.MetaData) {
	f := &r.fetch
	if !f.active {
		return
	}
	item, ok := f.inflight[fetchKey{int(md.Level), md.Index}]
	if !ok {
		return // no such item in flight (stale, duplicate, or unsolicited)
	}
	// Verify: recompute the partition digest from the children.
	var sum crypto.Incr
	for _, p := range md.Parts {
		sum = sum.Add(crypto.IncrOf(p.Digest))
	}
	computed := checkpoint.InteriorDigest(item.level, int(item.index), sum)
	if item.level == 0 {
		if ckptDigest(computed, md.Extra) != f.targetDigest {
			// Bogus or stale; no strike — a failed verification cannot
			// distinguish a lying sender from an honest one whose reply is
			// checked against a poisoned expectation (see fetchItem.origin),
			// so only the sender-claim-free timeout and origin-blame paths
			// accrue strikes. This item's timeout rotates its replier.
			return
		}
		f.rootVerified = true
		f.extra = append([]byte(nil), md.Extra...)
	} else if computed != item.digest {
		return
	}
	// Enqueue children that differ from our live state.
	for _, p := range md.Parts {
		if r.ckpt.LiveDigest(item.level+1, int(p.Index)) == p.Digest {
			continue
		}
		// Note p.LastMod is NOT carried into the item: the interior digest
		// covers only the children's digests (see checkpoint.InteriorDigest),
		// so a meta-data LastMod is unauthenticated — gating Data acceptance
		// on it would let a Byzantine replier wedge honest leaves forever.
		// LeafDigest binds the true lm, so the digest check there suffices.
		f.queue = append(f.queue, fetchItem{
			level:  item.level + 1,
			index:  p.Index,
			digest: p.Digest,
			origin: md.Replica,
		})
	}
	r.completeFetchItem(fetchKey{item.level, item.index}, md.Replica)
}

// onData installs a fetched page after verifying it against the expected
// leaf digest.
func (r *Replica) onData(d *message.Data) {
	f := &r.fetch
	if !f.active {
		return
	}
	leaf := r.ckpt.Levels() - 1
	item, ok := f.inflight[fetchKey{leaf, d.Index}]
	if !ok {
		return
	}
	// The digest alone authenticates the page AND its LastMod (LeafDigest
	// covers both), chaining up to the weak certificate's root. Data also
	// carries no MAC (content-addressed, §5.3.2), so its Replica field is
	// attacker-chosen: striking on it would let any Byzantine peer frame
	// the honest designated replier with injected garbage. Garbage is
	// simply dropped; if the real replier never serves the item, its
	// timeout strikes the assignment without trusting any sender claim.
	if len(d.Page) != r.region.PageSize() ||
		checkpoint.LeafDigest(int(d.Index), d.LastMod, d.Page) != item.digest {
		return
	}
	r.ckpt.InstallPage(int(d.Index), d.LastMod, d.Page)
	r.metrics.PagesFetched++
	r.metrics.TransferBytes += uint64(len(d.Page))
	// Decay the ASSIGNMENT, not d.Replica: the claim is unauthenticated, so
	// crediting it would let a Byzantine peer race honest pages stamped with
	// its own id to launder away its timeout strikes.
	r.completeFetchItem(fetchKey{leaf, d.Index}, item.replier)
}

// finishFetchIfDone seals a completed transfer and resumes the protocol.
func (r *Replica) finishFetchIfDone() {
	f := &r.fetch
	if !f.active || len(f.queue) != 0 || len(f.inflight) != 0 || !f.rootVerified {
		return
	}
	if ckptDigest(r.ckpt.RootDigest(), f.extra) != f.targetDigest {
		// Shouldn't happen: every page verified. Restart from the root.
		r.restartFetchFromRoot()
		return
	}
	r.ckpt.SealFetched(f.target, f.extra)
	r.replyCache.Install(f.extra)
	if f.target > f.prevExec {
		// Transfer observability: wall clock from the first startStateTransfer
		// (re-targets keep the clock) to the seal, for transfers that
		// actually advanced execution.
		r.metrics.LastTransferTime = time.Since(f.startedAt)
	}
	// A loaded cluster has moved on while we fetched; chase the frontier
	// without the candidate grace for a bounded window (see chaseUntil).
	f.chaseUntil = time.Now().Add(2 * retargetGrace)
	target := f.target
	f.active = false

	if target > r.log.Low() {
		r.log.AdvanceLow(target)
		for s := range r.ckptVotes {
			if s <= target {
				delete(r.ckptVotes, s)
			}
		}
		r.pruneViewChangeSets(target)
	}
	prev := r.lastExec
	if target != prev {
		// The live state now reflects execution through target exactly; any
		// slots between target and the old lastExec must re-execute, so
		// their request bodies must survive garbage collection.
		r.lastExec = target
		r.lastCommitted = target
		r.log.UnmarkExecutedAbove(target)
		for s := range r.execRecords {
			if s > target {
				delete(r.execRecords, s)
			}
		}
		r.log.Slots(func(s *vlog.Slot) {
			if s.Seq > target {
				s.Executed = false
				s.ExecutedTentative = false
			}
		})
	}
	r.metrics.StableCheckpoints++
	r.pruneRetiredQueue()
	r.recoveryCheckpointStable(target)
	r.executeForward()
}

// pruneRetiredQueue drops queued requests the freshly-installed reply cache
// proves already answered (timestamp at or below the client's restored
// last-replied mark). A replica rejoining via transfer carries requests
// queued before it fell behind; the group retired them long ago, and a
// queue of retired requests is not "waiting to execute" (§2.3.5) — left in
// place it holds the view-change timer armed through the whole catch-up and
// pushes the rejoiner into a lonely view change.
func (r *Replica) pruneRetiredQueue() {
	r.queue.Each(func(client message.NodeID, d crypto.Digest) bool {
		if req, ok := r.log.Request(d); ok {
			if ts, replied := r.lastReplied(req.Client); replied && req.Timestamp <= ts {
				r.queue.Remove(client, d)
			}
		}
		return true
	})
	r.updateVCTimer()
}

// ---------------------------------------------------------------------------
// Status messages and retransmission (§5.2)
// ---------------------------------------------------------------------------

func setBit(b []byte, i int) {
	if i>>3 < len(b) {
		b[i>>3] |= 1 << (i & 7)
	}
}

func getBit(b []byte, i int) bool {
	return i>>3 < len(b) && b[i>>3]&(1<<(i&7)) != 0
}

// sendStatus multicasts the appropriate status summary.
func (r *Replica) sendStatus() {
	if r.vc.pending {
		st := &message.StatusPending{
			View:       r.view,
			LastStable: r.log.Low(),
			LastExec:   r.lastExec,
			Replica:    r.id,
			HasNewView: false,
			VCs:        make([]byte, (r.n+7)/8),
		}
		for id := range r.vc.forView {
			setBit(st.VCs, int(id))
		}
		r.multicastReplicas(st)
		return
	}
	// Status messages are periodic (§5.2): they double as negative
	// acknowledgments, and they are how an isolated replica's peers learn
	// it fell behind, so they are sent even when nothing seems missing.
	bits := int(min64(int64(r.log.LogSize()), statusBitmapBits))
	st := &message.StatusActive{
		View:       r.view,
		LastStable: r.log.Low(),
		LastExec:   r.lastExec,
		Replica:    r.id,
		Prepared:   make([]byte, (bits+7)/8),
		Committed:  make([]byte, (bits+7)/8),
	}
	for i := 0; i < bits; i++ {
		seq := r.lastExec + 1 + message.Seq(i)
		if s, ok := r.log.Peek(seq); ok {
			if s.Prepared {
				setBit(st.Prepared, i)
			}
			if s.CommittedLocal {
				setBit(st.Committed, i)
			}
		}
	}
	r.multicastReplicas(st)
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func (r *Replica) onStatusActive(st *message.StatusActive) {
	if st.Replica == r.id {
		return
	}
	if st.View < r.view {
		r.helpLaggingView(st.Replica)
		return
	}
	if st.View > r.view || r.vc.pending {
		return
	}
	// Retransmit checkpoint votes if the peer's stability lags ours.
	if st.LastStable < r.log.Low() {
		if d, ok := r.ownCkptDigest(r.log.Low()); ok {
			cp := &message.Checkpoint{Seq: r.log.Low(), Digest: d, Replica: r.id}
			r.resendOwn(st.Replica, cp)
		}
	}
	// Retransmit protocol messages for sequence numbers the peer lacks.
	// Retransmissions are authenticated with the CURRENT keys (§5.2: after
	// a key refresh, messages stored with old authenticators are useless),
	// so each replica only retransmits messages it originally sent.
	bits := int(min64(int64(r.log.LogSize()), statusBitmapBits))
	for i := 0; i < bits; i++ {
		seq := st.LastExec + 1 + message.Seq(i)
		s, ok := r.log.Peek(seq)
		if !ok || !s.HasDigest {
			continue
		}
		if !getBit(st.Prepared, i) {
			if s.PrePrepare != nil && s.PrePrepare.Replica == r.id && r.haveSeparateBodies(s.PrePrepare) {
				r.resendOwn(st.Replica, s.PrePrepare) // fresh authenticator
				// Ship separately-transmitted request bodies too (client
				// authenticators are epoch-stable).
				for _, d := range s.PrePrepare.Digests {
					if req, ok := r.log.Request(d); ok {
						r.sendRaw(st.Replica, req)
					}
				}
			}
			if s.SentPrepare {
				r.resendOwn(st.Replica, r.ownPrepare(s.View, seq, s.Digest))
			}
		}
		if getBit(st.Prepared, i) && !getBit(st.Committed, i) && s.SentCommit {
			r.resendOwn(st.Replica, r.ownCommit(s.View, seq, s.Digest))
		}
	}
}

func (r *Replica) onStatusPending(st *message.StatusPending) {
	if st.Replica == r.id {
		return
	}
	if st.View < r.view {
		r.helpLaggingView(st.Replica)
		return
	}
	if st.View != r.view {
		return
	}
	if r.vc.pending {
		// Resend our own view-change with a fresh authenticator if the peer
		// lacks it, and relay others' (the receiver validates relays by
		// digest against the new-view certificate when authenticators are
		// stale, §3.2.4).
		r.sendMissingViewChanges(st.Replica, st.VCs)
		return
	}
	// We are active in this view: give the peer the new-view decision (the
	// author re-authenticates it; others relay) plus the certificate's
	// view-changes.
	if r.vc.newView != nil && !st.HasNewView {
		if r.vc.newView.Replica == r.id {
			r.resendOwn(st.Replica, r.vc.newView)
		} else {
			r.sendRaw(st.Replica, r.vc.newView)
		}
		r.sendMissingViewChanges(st.Replica, st.VCs)
	}
}

// sendMissingViewChanges ships every collected view-change the peer's
// status bitmap lacks, in ascending sender order: the sends reach the wire,
// so iteration must not follow map order (seeded runs replay bit-identically
// only if retransmission order is a pure function of state).
func (r *Replica) sendMissingViewChanges(dst message.NodeID, have []byte) {
	ids := make([]message.NodeID, 0, len(r.vc.forView))
	for id := range r.vc.forView {
		if !getBit(have, int(id)) {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		if vc := r.vc.forView[id]; id == r.id {
			r.resendOwn(dst, vc)
		} else {
			r.sendRaw(dst, vc)
		}
	}
}

// helpLaggingView pushes a replica stuck in an older view forward: our own
// view-change for the current view (freshly authenticated) plus the
// new-view message if we authored it. The other certificate members help
// with their own messages when they see the laggard's status.
func (r *Replica) helpLaggingView(peer message.NodeID) {
	if vc, ok := r.vc.forView[r.id]; ok {
		r.resendOwn(peer, vc)
	}
	if !r.vc.pending && r.vc.newView != nil {
		if r.vc.newView.Replica == r.id {
			r.resendOwn(peer, r.vc.newView)
		} else {
			r.sendRaw(peer, r.vc.newView)
		}
		for _, ref := range r.vc.newView.V {
			if vc, ok := r.vc.forView[ref.Replica]; ok {
				if ref.Replica == r.id {
					r.resendOwn(peer, vc)
				} else {
					r.sendRaw(peer, vc)
				}
			}
		}
	}
}
