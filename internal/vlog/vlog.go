// Package vlog implements the replica's message log: per-sequence-number
// slots that accumulate pre-prepare/prepare/commit messages and decide when
// quorum certificates are complete (§2.3.1), the water-mark window that
// bounds the log (§2.3.4), and the request store that keeps request bodies
// alive until they execute or are garbage collected.
//
// The slots form a ring of L (the window width) entries: sequence number
// seq lives in entry seq mod L while it is in the window (h, h+L], and an
// entry is reset in place when the window moves past its old sequence
// number and a new one claims it. Each slot keeps its prepare and commit
// votes in two arrays of n entries indexed by replica ID, allocated the
// first time its entry is used and reused after, so once the window has
// gone round once, recording and counting a vote allocates nothing; a vote
// claiming an ID outside the group is ignored. Slots iterates in sequence
// order. A *Slot is valid until the window moves past its sequence number
// or the log is Reset.
package vlog

import (
	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/quorum"
)

// certVote records one replica's prepare/commit for a slot; the vote only
// counts while it matches the slot's accepted pre-prepare.
type certVote struct {
	view   message.View
	digest crypto.Digest
	ok     bool // a vote was recorded
}

// Slot tracks the three-phase state of one sequence number in the current
// view. Votes that arrive before the pre-prepare are buffered and counted
// once the pre-prepare fixes the (view, digest) pair.
type Slot struct {
	Seq message.Seq

	// View and Digest are set when a pre-prepare is accepted, or when a
	// new-view message fixes the slot's batch digest before the body is
	// available (HasDigest distinguishes "digest known" from "body held").
	View       message.View
	Digest     crypto.Digest
	HasDigest  bool
	PrePrepare *message.PrePrepare

	// PrePrepared records that this replica sent a pre-prepare or prepare
	// for the slot (the paper's "pre-prepared at i" predicate, feeding Q).
	PrePrepared bool

	// SentPrepare/SentCommit dedupe this replica's own protocol sends.
	SentPrepare bool
	SentCommit  bool

	// prepares and commits hold one vote per replica, indexed by ID.
	prepares []certVote
	commits  []certVote

	// Prepared/CommittedLocal latch once true (within the view).
	Prepared       bool
	CommittedLocal bool

	// Executed states.
	ExecutedTentative bool
	Executed          bool
}

// reset makes s the empty slot for seq in a group of n, keeping its vote
// arrays; the first use of a ring entry allocates them.
func (s *Slot) reset(seq message.Seq, n int) {
	p, c := s.prepares, s.commits
	if p == nil {
		v := make([]certVote, 2*n)
		p, c = v[:n:n], v[n:]
	}
	clear(p)
	clear(c)
	*s = Slot{Seq: seq, prepares: p, commits: c}
}

// drop empties a slot the window has left, so its entry holds nothing
// alive until a new sequence number reuses it. Seq 0, which no window
// contains, marks the entry unused.
func (s *Slot) drop() { *s = Slot{prepares: s.prepares, commits: s.commits} }

// AddPrePrepare installs the accepted pre-prepare, fixing (view, digest).
func (s *Slot) AddPrePrepare(pp *message.PrePrepare) {
	s.View = pp.View
	s.Digest = pp.BatchDigest()
	s.HasDigest = true
	s.PrePrepare = pp
}

// AddDigestOnly fixes (view, digest) from a new-view decision before the
// batch body is available.
func (s *Slot) AddDigestOnly(v message.View, d crypto.Digest) {
	s.View = v
	s.Digest = d
	s.HasDigest = true
}

// AddPrepare records a prepare vote from a replica, replacing its earlier
// one. A vote from an ID outside the group is ignored.
func (s *Slot) AddPrepare(from message.NodeID, view message.View, digest crypto.Digest) {
	addVote(s.prepares, from, view, digest)
}

// AddCommit records a commit vote from a replica, replacing its earlier
// one. A vote from an ID outside the group is ignored.
func (s *Slot) AddCommit(from message.NodeID, view message.View, digest crypto.Digest) {
	addVote(s.commits, from, view, digest)
}

func addVote(votes []certVote, from message.NodeID, view message.View, digest crypto.Digest) {
	if from < 0 || int(from) >= len(votes) {
		return
	}
	votes[from] = certVote{view, digest, true}
}

// PrepareCount counts prepare votes matching the accepted digest,
// excluding the primary (whose pre-prepare stands for its prepare).
func (s *Slot) PrepareCount(primary message.NodeID) int {
	if !s.HasDigest {
		return 0
	}
	n := 0
	for from, v := range s.prepares {
		if v.ok && message.NodeID(from) != primary && v.view == s.View && v.digest == s.Digest {
			n++
		}
	}
	return n
}

// CommitCount counts commit votes matching the accepted digest.
func (s *Slot) CommitCount() int {
	if !s.HasDigest {
		return 0
	}
	n := 0
	for _, v := range s.commits {
		if v.ok && v.view == s.View && v.digest == s.Digest {
			n++
		}
	}
	return n
}

// CommitDigestCount counts commit votes for (view, digest) regardless of
// whether a pre-prepare is present (used to detect falling behind: 2f+1
// commits prove correctness of the digest).
func (s *Slot) CommitDigestCount(view message.View, digest crypto.Digest) int {
	n := 0
	for _, v := range s.commits {
		if v.ok && v.view == view && v.digest == digest {
			n++
		}
	}
	return n
}

// PrepareDigestCount counts prepare votes for digest in the slot's view
// (request-authentication condition 2 of §3.2.2 uses f such votes).
func (s *Slot) PrepareDigestCount(digest crypto.Digest) int {
	n := 0
	for _, v := range s.prepares {
		if v.ok && v.digest == digest {
			n++
		}
	}
	return n
}

// Log is the bounded message log of one replica.
type Log struct {
	n       int
	f       int
	logSize message.Seq // L: window width in sequence numbers

	low message.Seq // h: last stable checkpoint
	// ring holds the window's slots: seq lives in ring[seq % logSize].
	ring []Slot

	// requests maps request digest -> request body, retained until GC.
	requests map[crypto.Digest]*message.Request
	// executedBelow tracks request digests whose execution is reflected at
	// or below the last stable checkpoint (clearable at GC).
	reqSeq map[crypto.Digest]message.Seq
	// pinned is AdvanceLow's scratch set of the digests live slots still
	// reference, emptied at every call.
	pinned map[crypto.Digest]struct{}
}

// New creates a log for n=3f+1 replicas with the given window size.
func New(n int, logSize message.Seq) *Log {
	return &Log{
		n:        n,
		f:        quorum.F(n),
		logSize:  logSize,
		ring:     make([]Slot, logSize),
		requests: make(map[crypto.Digest]*message.Request),
		reqSeq:   make(map[crypto.Digest]message.Seq),
		pinned:   make(map[crypto.Digest]struct{}),
	}
}

// F returns the fault threshold.
func (l *Log) F() int { return l.f }

// Quorum returns the quorum certificate size, 2f+1.
func (l *Log) Quorum() int { return quorum.Strong(l.f) }

// Weak returns the weak certificate size, f+1.
func (l *Log) Weak() int { return quorum.Weak(l.f) }

// Low returns the low water mark h.
func (l *Log) Low() message.Seq { return l.low }

// High returns the high water mark H = h + L.
func (l *Log) High() message.Seq { return l.low + l.logSize }

// LogSize returns L.
func (l *Log) LogSize() message.Seq { return l.logSize }

// InWindow reports h < seq <= H (§2.3.3's in-w predicate).
func (l *Log) InWindow(seq message.Seq) bool {
	return seq > l.low && seq <= l.High()
}

// Slot returns the slot for seq, creating it if within the window.
func (l *Log) Slot(seq message.Seq) *Slot {
	if s, ok := l.Peek(seq); ok {
		return s
	}
	if !l.InWindow(seq) {
		return nil
	}
	s := &l.ring[seq%l.logSize]
	s.reset(seq, l.n)
	return s
}

// Peek returns the slot for seq only if it already exists.
func (l *Log) Peek(seq message.Seq) (*Slot, bool) {
	if !l.InWindow(seq) {
		return nil, false
	}
	if s := &l.ring[seq%l.logSize]; s.Seq == seq {
		return s, true
	}
	return nil, false
}

// CheckPrepared updates and returns the slot's prepared flag: pre-prepare
// plus 2f matching prepares (§2.3.3).
func (l *Log) CheckPrepared(s *Slot, primary message.NodeID) bool {
	if s.Prepared {
		return true
	}
	if s.HasDigest && s.PrepareCount(primary) >= quorum.MatchingPrepares(l.f) {
		s.Prepared = true
	}
	return s.Prepared
}

// CheckCommitted updates and returns committed-local: prepared plus a quorum
// of matching commits (§2.3.3).
func (l *Log) CheckCommitted(s *Slot, primary message.NodeID) bool {
	if s.CommittedLocal {
		return true
	}
	if l.CheckPrepared(s, primary) && s.CommitCount() >= l.Quorum() {
		s.CommittedLocal = true
	}
	return s.CommittedLocal
}

// AdvanceLow moves the low water mark to stable (a new stable checkpoint)
// and discards slots at or below it (§2.3.4).
//
// Request bodies executed at or below the checkpoint are garbage collected
// unless still referenced above it: a client retransmission can cause the
// primary to assign one request to a second, higher sequence number, and
// the body must survive until that slot executes (its execution dedupes on
// the timestamp, but the batch cannot be processed without the body).
func (l *Log) AdvanceLow(stable message.Seq) {
	if stable <= l.low {
		return
	}
	for seq := l.low + 1; seq <= stable && seq <= l.High(); seq++ {
		if s, ok := l.Peek(seq); ok {
			s.drop()
		}
	}
	l.low = stable
	// Pin digests referenced by surviving slots' batches.
	pinned := l.pinned
	clear(pinned) // left over from the previous advance
	l.Slots(func(s *Slot) {
		if s.PrePrepare == nil {
			return
		}
		for i := range s.PrePrepare.Inline {
			pinned[s.PrePrepare.Inline[i].Digest()] = struct{}{}
		}
		for _, d := range s.PrePrepare.Digests {
			pinned[d] = struct{}{}
		}
	})
	for d, seq := range l.reqSeq {
		if seq != 0 && seq <= stable {
			if _, ok := pinned[d]; ok {
				continue
			}
			delete(l.requests, d)
			delete(l.reqSeq, d)
		}
	}
}

// Reset clears every slot (used when a recovering replica discards
// potentially corrupt protocol state). The request store survives.
func (l *Log) Reset(low message.Seq) {
	l.low = low
	for i := range l.ring {
		l.ring[i].drop()
	}
}

// StoreRequest retains a request body.
func (l *Log) StoreRequest(req *message.Request) {
	d := req.Digest()
	if _, ok := l.requests[d]; !ok {
		l.requests[d] = req
		l.reqSeq[d] = 0
	}
}

// Request returns the stored request with the given digest.
func (l *Log) Request(d crypto.Digest) (*message.Request, bool) {
	r, ok := l.requests[d]
	return r, ok
}

// HasRequest reports whether the body of d is available.
func (l *Log) HasRequest(d crypto.Digest) bool {
	_, ok := l.requests[d]
	return ok
}

// MarkRequestExecuted binds a request digest to the sequence number whose
// execution covered it, making it GC-able once that seq is stable.
func (l *Log) MarkRequestExecuted(d crypto.Digest, seq message.Seq) {
	if _, ok := l.requests[d]; ok {
		l.reqSeq[d] = seq
	}
}

// UnmarkExecutedAbove clears execution marks above seq. It must be called
// whenever execution rolls back (tentative aborts at a view change, state
// transfer regressions): a request tentatively executed at one sequence
// number may be reassigned to a higher one in the new view, and its body
// must not be garbage collected before it re-executes.
func (l *Log) UnmarkExecutedAbove(seq message.Seq) {
	for d, s := range l.reqSeq {
		if s > seq {
			l.reqSeq[d] = 0
		}
	}
}

// RequestCount returns the number of retained request bodies.
func (l *Log) RequestCount() int { return len(l.requests) }

// Slots calls f on every existing slot in sequence order.
func (l *Log) Slots(f func(*Slot)) {
	for seq := l.low + 1; seq <= l.High(); seq++ {
		if s, ok := l.Peek(seq); ok {
			f(s)
		}
	}
}

// SlotCount returns the number of live slots.
func (l *Log) SlotCount() int {
	n := 0
	l.Slots(func(*Slot) { n++ })
	return n
}
