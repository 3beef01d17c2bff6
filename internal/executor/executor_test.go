package executor

import (
	"bytes"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/statemachine"
)

// captureOut records replies for inspection. SendReply is lent the
// executor's own reply for one call, so it keeps a copy.
type captureOut struct{ reps []*message.Reply }

func (c *captureOut) SendReply(rep *message.Reply) {
	cp := *rep
	c.reps = append(c.reps, &cp)
}

func (c *captureOut) replies() []*message.Reply { return c.reps }

type harness struct {
	ex     *Executor
	out    *captureOut
	region *statemachine.Region
	mgr    *checkpoint.Manager
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	region := statemachine.NewRegion(kvservice.MinStateSize, 1024)
	svc := kvservice.New(region)
	mgr := checkpoint.NewManager(region, 16)
	h := &harness{
		out:    &captureOut{},
		region: region,
		mgr:    mgr,
	}
	h.ex = New(Config{
		Self:          0,
		DigestReplies: true,
		SmallResult:   32,
		Service:       svc,
		Ckpt:          mgr,
		Cache:         NewReplyCache(),
		Out:           h.out,
	})
	return h
}

func req(client message.NodeID, ts uint64, op []byte) *message.Request {
	return &message.Request{Client: client, Timestamp: ts, Replier: message.NoNode, Op: op}
}

func TestExecBatchRepliesAndCaches(t *testing.T) {
	h := newHarness(t)
	cl := message.ClientIDBase
	h.ex.ExecBatch(1, 0, nil, false, []Entry{
		{Req: req(cl, 1, kvservice.Incr())},
		{Req: req(cl+1, 1, kvservice.Incr())},
	})
	reps := h.out.replies()
	if len(reps) != 2 {
		t.Fatalf("got %d replies, want 2", len(reps))
	}
	if got := kvservice.DecodeU64(reps[0].Result); got != 1 {
		t.Fatalf("first incr -> %d", got)
	}
	if got := kvservice.DecodeU64(reps[1].Result); got != 2 {
		t.Fatalf("second incr -> %d", got)
	}
	if cr := h.ex.Cache().Get(cl); cr == nil || cr.Timestamp != 1 {
		t.Fatalf("cache entry missing after execution: %+v", cr)
	}
}

func TestExactlyOnceAndResend(t *testing.T) {
	h := newHarness(t)
	cl := message.ClientIDBase
	first := []Entry{{Req: req(cl, 5, kvservice.Incr())}}
	h.ex.ExecBatch(1, 0, nil, false, first)
	// A duplicate at the same timestamp resends the cached reply instead of
	// re-executing; an older timestamp is dropped.
	dups := []Entry{
		{Req: req(cl, 5, kvservice.Incr())},
		{Req: req(cl, 4, kvservice.Incr())},
	}
	h.ex.ExecBatch(2, 0, nil, false, dups)
	if !first[0].Executed || dups[0].Executed || dups[1].Executed {
		t.Fatalf("Executed flags: first=%v dups=%v,%v, want true,false,false",
			first[0].Executed, dups[0].Executed, dups[1].Executed)
	}
	h.ex.ResendReply(cl, 0)
	reps := h.out.replies()
	if len(reps) != 3 { // execute + duplicate resend + explicit resend
		t.Fatalf("got %d replies, want 3", len(reps))
	}
	for i, rep := range reps {
		if got := kvservice.DecodeU64(rep.Result); got != 1 {
			t.Fatalf("reply %d carries counter %d, want 1 (re-execution leaked)", i, got)
		}
	}
}

func TestTentativeFinalize(t *testing.T) {
	h := newHarness(t)
	cl := message.ClientIDBase
	h.ex.ExecBatch(1, 0, nil, true, []Entry{{Req: req(cl, 1, kvservice.Incr())}})
	if rep := h.out.replies()[0]; !rep.Tentative {
		t.Fatal("reply not marked tentative")
	}
	if cr := h.ex.Cache().Get(cl); !cr.Tentative {
		t.Fatal("cache entry not tentative")
	}
	h.ex.Finalize([]*message.Request{nil, req(cl, 1, kvservice.Incr())})
	if cr := h.ex.Cache().Get(cl); cr.Tentative {
		t.Fatal("finalize did not clear the tentative flag")
	}
}

func TestCheckpointEventDigest(t *testing.T) {
	h := newHarness(t)
	cl := message.ClientIDBase
	h.ex.ExecBatch(1, 0, nil, false, []Entry{{Req: req(cl, 1, kvservice.Incr())}})
	got := h.ex.TakeCheckpoint(1, 0)
	// The returned digest must match what the manager + cache would give.
	snap, ok := h.mgr.Snapshot(1)
	if !ok {
		t.Fatal("snapshot 1 missing")
	}
	if got != checkpoint.CombinedDigest(snap.Root, snap.Extra) {
		t.Fatal("returned digest disagrees with the manager snapshot")
	}
	if st := h.ex.Stats(); st.CkptTime <= 0 || st.PagesDigested == 0 {
		t.Fatalf("checkpoint stats not tracked: %+v", st)
	}
}

func TestPrecomputedResultSkipsService(t *testing.T) {
	h := newHarness(t)
	cl := message.NodeID(2) // replica id: a recovery request
	pre := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	h.ex.ExecBatch(1, 0, nil, false, []Entry{
		{Req: req(cl, 1, kvservice.Incr()), Pre: pre, HasPre: true},
	})
	if !bytes.Equal(h.out.replies()[0].Result, pre) {
		t.Fatal("precomputed result not used")
	}
	// The service op must not have run: counter unchanged.
	h.ex.ExecReadOnly(req(message.ClientIDBase, 1, kvservice.Get()), 0)
	reps := h.out.replies()
	if got := kvservice.DecodeU64(reps[len(reps)-1].Result); got != 0 {
		t.Fatalf("counter = %d after precomputed entry, want 0", got)
	}
}

func TestDigestRepliesSlimming(t *testing.T) {
	h := newHarness(t)
	cl := message.ClientIDBase
	// Write a blob, then read it back with a non-self designated replier:
	// the reply must be slimmed to a digest.
	h.ex.ExecBatch(1, 0, nil, false, []Entry{
		{Req: req(cl, 1, kvservice.WriteBlob(bytes.Repeat([]byte{7}, 256)))},
	})
	rr := req(cl, 2, kvservice.ReadBlob(256))
	rr.Replier = 3
	h.ex.ExecReadOnly(rr, 0)
	reps := h.out.replies()
	last := reps[len(reps)-1]
	if last.HasResult || last.Result != nil {
		t.Fatal("reply for non-designated replier not slimmed")
	}
	if last.ResultDigest.IsZero() {
		t.Fatal("slimmed reply lacks result digest")
	}
}

func TestReplyCacheRoundTrip(t *testing.T) {
	c := NewReplyCache()
	c.Set(message.ClientIDBase, 3, []byte("abc"), false)
	c.Set(message.ClientIDBase+5, 9, nil, true)
	b := c.Marshal()

	c2 := NewReplyCache()
	c2.Install(b)
	if c2.Len() != 2 {
		t.Fatalf("installed %d entries, want 2", c2.Len())
	}
	cr := c2.Get(message.ClientIDBase)
	if cr == nil || cr.Timestamp != 3 || !bytes.Equal(cr.Result, []byte("abc")) {
		t.Fatalf("round trip lost entry: %+v", cr)
	}
	// Checkpointed replies install committed regardless of live flags.
	if c2.Get(message.ClientIDBase + 5).Tentative {
		t.Fatal("installed entry kept tentative flag")
	}
	// Marshaling must be deterministic (it is checkpointed state).
	if !bytes.Equal(b, c2.Marshal()) {
		t.Fatal("marshal not deterministic across install")
	}
}
