package pbft

// Tests for the vote path: prepares and commits reach the event loop as
// datagrams, are decoded into the loop's own targets, and count toward a
// certificate only when a replica sent them.

import (
	"testing"

	"repro/internal/crypto"
	"repro/internal/egress"
	"repro/internal/message"
	"repro/internal/simnet"
)

// voteBed is replica 3 of a 4-replica MAC-mode group, alone on its network
// and never started: the test is its only source of datagrams and drives
// its event-loop handlers itself, so every run is the same.
type voteBed struct {
	t *testing.T
	r *Replica
}

func newVoteBed(t *testing.T) *voteBed {
	t.Helper()
	net := simnet.New(simnet.WithSeed(1))
	t.Cleanup(net.Close)
	return &voteBed{t: t, r: unstartedReplica(t, net, NewDirectory(4), ModeMAC, 3)}
}

// sealedBy returns m as principal id would send it: its body followed by a
// group authenticator made with id's own initial keys.
func sealedBy(id message.NodeID, m message.Message) []byte {
	ks := crypto.NewKeyStore(uint32(id))
	for i := uint32(0); i < 4; i++ {
		ks.InstallInitial(i)
	}
	wire, _ := (&sealer{mode: ModeMAC, n: 4, ks: ks}).Seal(nil, egress.Vector, message.NoNode, m)
	return wire
}

// deliver passes datagrams through the replica's ingress stage and then
// runs every resulting verdict on the event-loop handlers.
func (b *voteBed) deliver(raws ...[]byte) {
	b.t.Helper()
	for _, raw := range raws {
		if !b.r.pipe.Submit(raw) {
			b.t.Fatal("ingress refused a datagram")
		}
		for len(b.r.inbox) > 0 {
			b.r.onInbound(<-b.r.inbox)
		}
	}
}

// prePrepared gives the replica the primary's pre-prepare for an empty
// batch at seq 1 and returns the batch digest.
func (b *voteBed) prePrepared() crypto.Digest {
	b.t.Helper()
	pp := &message.PrePrepare{View: 0, Seq: 1, Replica: 0}
	b.deliver(sealedBy(0, pp))
	if s, ok := b.r.log.Peek(1); !ok || s.PrePrepare == nil {
		b.t.Fatal("setup: pre-prepare not accepted")
	}
	return pp.BatchDigest()
}

func prepareFrom(id message.NodeID, d crypto.Digest) []byte {
	return sealedBy(id, &message.Prepare{View: 0, Seq: 1, Digest: d, Replica: id})
}

func commitFrom(id message.NodeID, d crypto.Digest) []byte {
	return sealedBy(id, &message.Commit{View: 0, Seq: 1, Digest: d, Replica: id})
}

// checkForgeriesRefused checks that the two client-sent messages failed
// authentication, and were counted as such, at both stages.
func (b *voteBed) checkForgeriesRefused() {
	b.t.Helper()
	if got := b.r.pipe.Stats().AuthFailed; got != 2 {
		b.t.Errorf("ingress counted %d auth failures, want 2", got)
	}
	if got := b.r.metrics.MsgsDroppedBadAuth; got != 2 {
		b.t.Errorf("event loop counted %d bad-auth drops, want 2", got)
	}
}

// TestClientVotesDoNotCount: a client holds session keys shared with every
// replica, so it can MAC a prepare, commit or checkpoint that claims its
// own ID as the sender. Such a vote must fail authentication — only a
// request may come from outside the group — and must never complete a
// certificate.
func TestClientVotesDoNotCount(t *testing.T) {
	c1, c2 := message.ClientIDBase, message.ClientIDBase+1

	t.Run("Commit", func(t *testing.T) {
		b := newVoteBed(t)
		d := b.prePrepared()
		b.deliver(prepareFrom(1, d), prepareFrom(2, d))
		s, _ := b.r.log.Peek(1)
		if !s.Prepared || !s.SentCommit {
			t.Fatal("setup: replica 3 did not prepare and commit")
		}
		// Replica 3 has its own commit and no other replica's.
		b.deliver(commitFrom(c1, d), commitFrom(c2, d))
		if s.CommittedLocal || b.r.lastCommitted != 0 {
			t.Fatalf("two client commits completed the quorum: committed %v, committed through %d",
				s.CommittedLocal, b.r.lastCommitted)
		}
		b.checkForgeriesRefused()
		b.deliver(commitFrom(1, d), commitFrom(2, d))
		if !s.CommittedLocal || b.r.lastCommitted != 1 {
			t.Fatal("control: two replica commits did not commit seq 1")
		}
	})

	t.Run("Prepare", func(t *testing.T) {
		b := newVoteBed(t)
		d := b.prePrepared()
		b.deliver(prepareFrom(c1, d), prepareFrom(c2, d))
		s, _ := b.r.log.Peek(1)
		if s.Prepared || s.SentCommit {
			t.Fatal("two client prepares prepared seq 1")
		}
		b.checkForgeriesRefused()
		b.deliver(prepareFrom(1, d), prepareFrom(2, d))
		if !s.Prepared || !s.SentCommit {
			t.Fatal("control: two replica prepares did not prepare seq 1")
		}
	})

	t.Run("Checkpoint", func(t *testing.T) {
		b := newVoteBed(t)
		// Beyond the window: a weak certificate for it starts a state
		// transfer at once (§5.3.2).
		seq := b.r.log.High() + b.r.cfg.CheckpointInterval
		d := crypto.DigestOf([]byte("forged state"))
		ckpt := func(id message.NodeID) []byte {
			return sealedBy(id, &message.Checkpoint{Seq: seq, Digest: d, Replica: id})
		}
		b.deliver(ckpt(c1), ckpt(c2))
		if n := b.r.metrics.StateTransfers; n != 0 {
			t.Fatalf("two client checkpoints started %d state transfers", n)
		}
		b.checkForgeriesRefused()
		b.deliver(ckpt(1), ckpt(2))
		if b.r.metrics.StateTransfers != 1 {
			t.Fatal("control: two replica checkpoints did not start a state transfer")
		}
	})
}

// TestVotePathAllocationFree pins the steady state of the all-to-all
// phases: once a slot exists, an inbound prepare or commit costs no heap
// allocation from the ingress stage's Submit through the event-loop
// handler that records it.
func TestVotePathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	b := newVoteBed(t)
	d := b.prePrepared()
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"prepare", prepareFrom(1, d)},
		{"commit", commitFrom(1, d)},
	} {
		got := testing.AllocsPerRun(200, func() {
			b.r.pipe.Submit(c.raw)
			b.r.onInbound(<-b.r.inbox)
		})
		if got != 0 {
			t.Errorf("%s: %v allocations per vote, want 0", c.name, got)
		}
	}
	// Replica 1's prepare, with 3's own, prepared the slot on the first
	// call, and 3 committed too.
	s, _ := b.r.log.Peek(1)
	if s.PrepareDigestCount(d) != 2 || s.CommitDigestCount(0, d) != 2 {
		t.Fatalf("votes recorded: %d prepares and %d commits, want 2 and 2",
			s.PrepareDigestCount(d), s.CommitDigestCount(0, d))
	}
}
