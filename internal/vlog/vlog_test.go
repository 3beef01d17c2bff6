package vlog

import (
	"testing"
	"testing/quick"

	"repro/internal/crypto"
	"repro/internal/message"
)

func pp(view message.View, seq message.Seq, body string) *message.PrePrepare {
	return &message.PrePrepare{
		View: view, Seq: seq,
		Digests: []crypto.Digest{crypto.DigestOf([]byte(body))},
		Replica: 0,
	}
}

func TestQuorumArithmetic(t *testing.T) {
	cases := []struct{ n, f, q, w int }{
		{4, 1, 3, 2}, {7, 2, 5, 3}, {10, 3, 7, 4}, {13, 4, 9, 5},
	}
	for _, c := range cases {
		l := New(c.n, 128)
		if l.F() != c.f || l.Quorum() != c.q || l.Weak() != c.w {
			t.Fatalf("n=%d: f=%d q=%d w=%d", c.n, l.F(), l.Quorum(), l.Weak())
		}
	}
}

func TestWaterMarks(t *testing.T) {
	l := New(4, 16)
	if l.Low() != 0 || l.High() != 16 {
		t.Fatalf("initial marks %d/%d", l.Low(), l.High())
	}
	if l.InWindow(0) {
		t.Fatal("0 must be outside (h, H]")
	}
	if !l.InWindow(1) || !l.InWindow(16) {
		t.Fatal("1 and 16 must be inside")
	}
	if l.InWindow(17) {
		t.Fatal("17 must be outside")
	}
	l.AdvanceLow(8)
	if l.InWindow(8) || !l.InWindow(9) || !l.InWindow(24) || l.InWindow(25) {
		t.Fatal("window after advance wrong")
	}
}

func TestSlotCreationRespectsWindow(t *testing.T) {
	l := New(4, 8)
	if l.Slot(0) != nil {
		t.Fatal("slot 0 created below low mark")
	}
	if l.Slot(9) != nil {
		t.Fatal("slot beyond high mark created")
	}
	s := l.Slot(5)
	if s == nil || s.Seq != 5 {
		t.Fatal("slot 5 not created")
	}
	if s2 := l.Slot(5); s2 != s {
		t.Fatal("slot not cached")
	}
}

func TestPreparedCertificate(t *testing.T) {
	l := New(4, 16) // f=1: need pre-prepare + 2 matching prepares
	s := l.Slot(1)
	p := pp(0, 1, "batch")
	d := p.BatchDigest()
	s.AddPrePrepare(p)

	if l.CheckPrepared(s, 0) {
		t.Fatal("prepared with no prepares")
	}
	s.AddPrepare(1, 0, d)
	if l.CheckPrepared(s, 0) {
		t.Fatal("prepared with one prepare (need 2f)")
	}
	s.AddPrepare(2, 0, d)
	if !l.CheckPrepared(s, 0) {
		t.Fatal("not prepared with 2f matching prepares")
	}
}

func TestPreparesFromPrimaryDoNotCount(t *testing.T) {
	l := New(4, 16)
	s := l.Slot(1)
	p := pp(0, 1, "b")
	d := p.BatchDigest()
	s.AddPrePrepare(p)
	s.AddPrepare(0, 0, d) // primary's prepare must not count
	s.AddPrepare(1, 0, d)
	if l.CheckPrepared(s, 0) {
		t.Fatal("prepared counting the primary's prepare")
	}
	s.AddPrepare(2, 0, d)
	if !l.CheckPrepared(s, 0) {
		t.Fatal("not prepared")
	}
}

func TestMismatchedPreparesDoNotCount(t *testing.T) {
	l := New(4, 16)
	s := l.Slot(1)
	p := pp(0, 1, "good")
	s.AddPrePrepare(p)
	bad := crypto.DigestOf([]byte("evil"))
	s.AddPrepare(1, 0, bad)
	s.AddPrepare(2, 0, bad)
	s.AddPrepare(3, 0, bad)
	if l.CheckPrepared(s, 0) {
		t.Fatal("prepared from mismatched digests")
	}
	// Wrong view must not count either.
	d := p.BatchDigest()
	s.AddPrepare(1, 1, d)
	s.AddPrepare(2, 1, d)
	if l.CheckPrepared(s, 0) {
		t.Fatal("prepared from wrong-view prepares")
	}
}

func TestCommittedCertificate(t *testing.T) {
	l := New(4, 16)
	s := l.Slot(1)
	p := pp(0, 1, "b")
	d := p.BatchDigest()
	s.AddPrePrepare(p)
	s.AddPrepare(1, 0, d)
	s.AddPrepare(2, 0, d)
	s.AddCommit(0, 0, d)
	s.AddCommit(1, 0, d)
	if l.CheckCommitted(s, 0) {
		t.Fatal("committed with 2 commits (need 2f+1)")
	}
	s.AddCommit(2, 0, d)
	if !l.CheckCommitted(s, 0) {
		t.Fatal("not committed with quorum of commits")
	}
}

func TestCommitsBufferedBeforePrePrepare(t *testing.T) {
	// Votes arriving before the pre-prepare must count once it lands.
	l := New(4, 16)
	s := l.Slot(2)
	p := pp(0, 2, "late")
	d := p.BatchDigest()
	s.AddPrepare(1, 0, d)
	s.AddPrepare(2, 0, d)
	s.AddCommit(1, 0, d)
	s.AddCommit(2, 0, d)
	s.AddCommit(3, 0, d)
	if l.CheckCommitted(s, 0) {
		t.Fatal("committed without a digest fixed")
	}
	s.AddPrePrepare(p)
	if !l.CheckCommitted(s, 0) {
		t.Fatal("buffered votes did not count after pre-prepare")
	}
}

func TestVoteOverwritePerReplica(t *testing.T) {
	// A replica's second (conflicting) vote replaces the first: at most one
	// vote per replica counts.
	l := New(4, 16)
	s := l.Slot(1)
	p := pp(0, 1, "b")
	d := p.BatchDigest()
	s.AddPrePrepare(p)
	s.AddPrepare(1, 0, d)
	s.AddPrepare(1, 0, crypto.DigestOf([]byte("other"))) // overwrite
	if s.PrepareCount(0) != 0 {
		t.Fatalf("prepare count %d after overwrite, want 0", s.PrepareCount(0))
	}
}

func TestAddDigestOnly(t *testing.T) {
	l := New(4, 16)
	s := l.Slot(3)
	d := crypto.DigestOf([]byte("from-new-view"))
	s.AddDigestOnly(2, d)
	if !s.HasDigest || s.PrePrepare != nil {
		t.Fatal("digest-only install wrong")
	}
	// Primary of view 2 (replica 2) does not send prepares; votes come from
	// other backups.
	s.AddPrepare(1, 2, d)
	s.AddPrepare(3, 2, d)
	if !l.CheckPrepared(s, 2) {
		t.Fatal("digest-only slot cannot prepare")
	}
}

func TestAdvanceLowDiscardsSlots(t *testing.T) {
	l := New(4, 16)
	for seq := message.Seq(1); seq <= 10; seq++ {
		l.Slot(seq)
	}
	l.AdvanceLow(5)
	if got := l.SlotCount(); got != 5 {
		t.Fatalf("%d slots live after AdvanceLow(5), want 5", got)
	}
	for seq := message.Seq(1); seq <= 5; seq++ {
		if l.ring[seq%16].Seq == seq {
			t.Fatalf("discarded slot %d still occupies its ring entry", seq)
		}
	}
	if _, ok := l.Peek(3); ok {
		t.Fatal("discarded slot still present")
	}
	if _, ok := l.Peek(6); !ok {
		t.Fatal("retained slot missing")
	}
	l.AdvanceLow(5)
	if got := l.SlotCount(); got != 5 {
		t.Fatalf("re-advancing to the same mark left %d slots, want 5", got)
	}
}

func TestRequestStoreGC(t *testing.T) {
	l := New(4, 16)
	req := &message.Request{Client: message.ClientIDBase, Timestamp: 1, Op: []byte("x")}
	d := req.Digest()
	l.StoreRequest(req)
	if !l.HasRequest(d) {
		t.Fatal("stored request missing")
	}
	l.MarkRequestExecuted(d, 3)
	l.AdvanceLow(2)
	if !l.HasRequest(d) {
		t.Fatal("request GC'd before its checkpoint")
	}
	l.AdvanceLow(3)
	if l.HasRequest(d) {
		t.Fatal("request not GC'd after stable checkpoint covers it")
	}
}

func TestUnexecutedRequestSurvivesGC(t *testing.T) {
	l := New(4, 16)
	req := &message.Request{Client: message.ClientIDBase, Timestamp: 9, Op: []byte("pending")}
	l.StoreRequest(req)
	l.AdvanceLow(10)
	if !l.HasRequest(req.Digest()) {
		t.Fatal("pending request was GC'd")
	}
}

func TestResetKeepsRequests(t *testing.T) {
	l := New(4, 16)
	l.Slot(1)
	l.Slot(2)
	req := &message.Request{Client: message.ClientIDBase, Timestamp: 1, Op: []byte("x")}
	l.StoreRequest(req)
	l.Reset(0)
	if l.SlotCount() != 0 {
		t.Fatal("slots survive reset")
	}
	if !l.HasRequest(req.Digest()) {
		t.Fatal("request store cleared by reset")
	}
}

func TestPrepareDigestCount(t *testing.T) {
	l := New(7, 16)
	s := l.Slot(1)
	d := crypto.DigestOf([]byte("b"))
	for i := 1; i <= 3; i++ {
		s.AddPrepare(message.NodeID(i), 0, d)
	}
	if s.PrepareDigestCount(d) != 3 {
		t.Fatalf("digest count %d", s.PrepareDigestCount(d))
	}
	if s.PrepareDigestCount(crypto.DigestOf([]byte("z"))) != 0 {
		t.Fatal("count for absent digest")
	}
}

func TestCommitDigestCount(t *testing.T) {
	l := New(4, 16)
	s := l.Slot(1)
	d := crypto.DigestOf([]byte("b"))
	s.AddCommit(1, 3, d)
	s.AddCommit(2, 3, d)
	if s.CommitDigestCount(3, d) != 2 {
		t.Fatal("commit digest count wrong")
	}
	if s.CommitDigestCount(2, d) != 0 {
		t.Fatal("wrong-view commits counted")
	}
}

// Property: for any set of votes, prepared implies >= 2f matching prepares
// from non-primary replicas, and committed implies prepared plus >= 2f+1
// matching commits — the certificate definitions themselves.
func TestCertificateSoundnessQuick(t *testing.T) {
	f := func(votes []uint8, commits []uint8) bool {
		l := New(4, 16)
		s := l.Slot(1)
		p := pp(0, 1, "b")
		d := p.BatchDigest()
		s.AddPrePrepare(p)
		good := crypto.DigestOf([]byte("bad"))
		for _, v := range votes {
			replica := message.NodeID(v % 4)
			dig := d
			if v%3 == 0 {
				dig = good
			}
			s.AddPrepare(replica, 0, dig)
		}
		for _, v := range commits {
			replica := message.NodeID(v % 4)
			dig := d
			if v%5 == 0 {
				dig = good
			}
			s.AddCommit(replica, 0, dig)
		}
		prepared := l.CheckPrepared(s, 0)
		if prepared != (s.PrepareCount(0) >= 2) {
			return false
		}
		committed := l.CheckCommitted(s, 0)
		if committed && (!prepared || s.CommitCount() < 3) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// The ring: seq lives in entry seq mod L, so seq and seq+L share an entry.

func TestSlotReuseCarriesNothing(t *testing.T) {
	l := New(4, 8)
	s := l.Slot(3)
	p := pp(0, 3, "old")
	d := p.BatchDigest()
	s.AddPrePrepare(p)
	s.PrePrepared, s.SentPrepare, s.SentCommit = true, true, true
	for i := message.NodeID(0); i < 4; i++ {
		s.AddPrepare(i, 0, d)
		s.AddCommit(i, 0, d)
	}
	if !l.CheckCommitted(s, 0) {
		t.Fatal("setup: slot 3 did not commit")
	}
	s.ExecutedTentative, s.Executed = true, true

	l.AdvanceLow(8)
	if _, ok := l.Peek(3); ok {
		t.Fatal("slot 3 survived the window moving past it")
	}
	r := l.Slot(11) // 11 mod 8 == 3 mod 8
	if r != s {
		t.Fatal("seq 11 did not reuse seq 3's ring entry")
	}
	if r.Seq != 11 || r.View != 0 || r.Digest != (crypto.Digest{}) || r.HasDigest ||
		r.PrePrepare != nil || r.PrePrepared || r.SentPrepare || r.SentCommit ||
		r.Prepared || r.CommittedLocal || r.ExecutedTentative || r.Executed {
		t.Fatalf("reused slot carries state from seq 3: %+v", *r)
	}
	if r.PrepareDigestCount(d) != 0 || r.CommitDigestCount(0, d) != 0 {
		t.Fatal("reused slot carries seq 3's votes")
	}
	r.AddPrePrepare(pp(0, 11, "old")) // same digest as seq 3's batch
	if r.PrepareCount(0) != 0 || r.CommitCount() != 0 || l.CheckPrepared(r, 0) {
		t.Fatal("seq 3's votes count toward seq 11")
	}
}

func TestResetInvalidatesEverySlot(t *testing.T) {
	l := New(4, 8)
	for seq := message.Seq(1); seq <= 8; seq++ {
		l.Slot(seq).AddPrepare(1, 0, crypto.Digest{1})
	}
	l.Reset(0)
	for seq := message.Seq(1); seq <= 8; seq++ {
		if _, ok := l.Peek(seq); ok {
			t.Fatalf("slot %d live after Reset", seq)
		}
		if s := l.Slot(seq); s.PrepareDigestCount(crypto.Digest{1}) != 0 {
			t.Fatalf("slot %d recreated after Reset kept its votes", seq)
		}
	}
	l.Reset(4) // a new low mark: the same entries now hold 5..12
	if n := l.SlotCount(); n != 0 {
		t.Fatalf("%d slots live after Reset", n)
	}
	if _, ok := l.Peek(12); ok {
		t.Fatal("Peek(12) found the dead entry slot 4 left")
	}
}

func TestPeekAndSlotsSkipDeadSlots(t *testing.T) {
	l := New(4, 8)
	for _, seq := range []message.Seq{2, 5, 7} {
		l.Slot(seq)
	}
	for seq := message.Seq(0); seq <= 20; seq++ {
		_, ok := l.Peek(seq)
		if want := seq == 2 || seq == 5 || seq == 7; ok != want {
			t.Fatalf("Peek(%d) = %v, want %v", seq, ok, want)
		}
	}
	var seen []message.Seq
	l.Slots(func(s *Slot) { seen = append(seen, s.Seq) })
	if len(seen) != 3 || seen[0] != 2 || seen[1] != 5 || seen[2] != 7 {
		t.Fatalf("Slots visited %v, want [2 5 7] in order", seen)
	}
	l.AdvanceLow(5)
	seen = seen[:0]
	l.Slots(func(s *Slot) { seen = append(seen, s.Seq) })
	if len(seen) != 1 || seen[0] != 7 {
		t.Fatalf("Slots visited %v after AdvanceLow(5), want [7]", seen)
	}
	if _, ok := l.Peek(10); ok { // 10 mod 8 == 2 mod 8, whose slot died
		t.Fatal("Peek(10) found seq 2's dead entry")
	}
	if l.SlotCount() != 1 {
		t.Fatalf("SlotCount = %d, want 1", l.SlotCount())
	}
}

func TestVotesFromOutsideGroupIgnored(t *testing.T) {
	l := New(4, 16)
	s := l.Slot(1)
	p := pp(0, 1, "b")
	d := p.BatchDigest()
	s.AddPrePrepare(p)
	for _, id := range []message.NodeID{4, 5, message.ClientIDBase, message.ClientIDBase + 1, message.NoNode} {
		s.AddPrepare(id, 0, d)
		s.AddCommit(id, 0, d)
	}
	if s.PrepareCount(0) != 0 || s.CommitCount() != 0 ||
		s.PrepareDigestCount(d) != 0 || s.CommitDigestCount(0, d) != 0 {
		t.Fatal("votes from IDs outside 0..n-1 were counted")
	}
	s.AddPrepare(1, 0, d)
	s.AddPrepare(2, 0, d)
	s.AddCommit(0, 0, d)
	s.AddCommit(1, 0, d)
	s.AddCommit(message.ClientIDBase, 0, d)
	if !l.CheckPrepared(s, 0) || l.CheckCommitted(s, 0) {
		t.Fatal("a client's commit completed the quorum")
	}
}
