package pbft

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/quorum"
)

// TestReplyCertificateTally drives Client.onReply at n = 4 (f = 1): a weak
// certificate is 2 final replies, a quorum 3 replies of any kind, and a
// read-only request needs 3 matching replies. Every row checks that no
// certificate completes before its last reply.
func TestReplyCertificateTally(t *testing.T) {
	lo, hi := "a", "b"
	if bytes.Compare(digestOf(hi), digestOf(lo)) < 0 {
		lo, hi = hi, lo
	}
	type vote struct {
		replica   message.NodeID
		res       string
		tentative bool
		full      bool // carries the result itself, not only its digest
		tampered  bool // carries a result that does not match its digest
	}
	final := func(r message.NodeID, res string, full bool) vote { return vote{replica: r, res: res, full: full} }
	tent := func(r message.NodeID, res string, full bool) vote {
		return vote{replica: r, res: res, tentative: true, full: full}
	}
	for _, tc := range []struct {
		name     string
		readOnly bool
		// silent replies are folded with no one waiting on the
		// certificate, so a certificate they complete stays unclaimed.
		silent int
		// demoteAt, if positive, demotes the request to read-write after
		// that many replies.
		demoteAt int
		votes    []vote
		want     string // "" means no certificate
	}{
		{name: "weak final certificate",
			votes: []vote{final(0, lo, true), final(1, lo, false)}, want: lo},
		{name: "final replies without a result wait",
			votes: []vote{final(0, lo, false), final(1, lo, false)}},
		{name: "tentative quorum",
			votes: []vote{tent(0, lo, true), tent(1, lo, false), tent(2, lo, false)}, want: lo},
		{name: "final vote counts toward the tentative quorum",
			votes: []vote{tent(0, lo, true), tent(1, lo, false), final(2, lo, false)}, want: lo},
		{name: "read-only needs 2f+1",
			readOnly: true,
			votes:    []vote{final(0, lo, true), final(1, lo, false), final(2, lo, false)}, want: lo},
		{name: "both complete, smaller digest last",
			silent: 3,
			votes:  []vote{final(0, hi, true), final(1, hi, false), final(2, lo, true), final(3, lo, false)},
			want:   lo},
		{name: "both complete, larger digest last",
			silent: 3,
			votes:  []vote{final(0, lo, true), final(1, lo, false), final(2, hi, true), final(3, hi, false)},
			want:   lo},
		{name: "second vote replaces the first",
			votes: []vote{final(0, hi, true), final(1, lo, true), final(0, lo, false)}, want: lo},
		{name: "replaced vote stops counting",
			votes: []vote{final(0, lo, true), final(0, hi, false), final(1, lo, false)}},
		{name: "result not matching its digest is ignored",
			votes: []vote{{replica: 0, res: lo, full: true, tampered: true}, final(1, lo, true), final(2, lo, false)},
			want:  lo},
		{name: "demotion keeps results",
			readOnly: true, demoteAt: 1,
			votes: []vote{final(0, lo, true), final(1, lo, false), final(2, lo, false)}, want: lo},
		{name: "replica outside the group is ignored",
			votes: []vote{final(0, lo, true), final(4, lo, true), final(-1, lo, true), final(1<<30, lo, true)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 4
			need := quorum.Weak(quorum.F(n))
			if tc.readOnly {
				need = quorum.Strong(quorum.F(n))
			}
			p := newPendingInvoke(n)
			p.reset(7, need, tc.readOnly)
			c := &Client{dir: NewDirectory(n), pending: p}
			done := p.done
			p.done = nil // a nil channel never takes the result
			for i, v := range tc.votes {
				if i == tc.silent {
					p.done = done
				}
				if tc.demoteAt > 0 && i == tc.demoteAt {
					p.demote(quorum.Weak(quorum.F(n)))
				}
				rep := &message.Reply{
					Timestamp:    7,
					Replica:      v.replica,
					Tentative:    v.tentative,
					HasResult:    v.full,
					ResultDigest: crypto.DigestOf([]byte(v.res)),
				}
				if v.full {
					rep.Result = []byte(v.res)
					if v.tampered {
						rep.Result = []byte("tampered")
					}
				}
				c.onReply(rep)
				if i < len(tc.votes)-1 && len(done) > 0 {
					t.Fatalf("certificate completed early, at reply %d: %q", i, <-done)
				}
			}
			select {
			case got := <-done:
				if string(got) != tc.want {
					t.Fatalf("accepted %q, want %q", got, tc.want)
				}
			default:
				if tc.want != "" {
					t.Fatalf("no certificate, want %q", tc.want)
				}
			}
		})
	}
}

func digestOf(s string) []byte {
	d := crypto.DigestOf([]byte(s))
	return d[:]
}

// TestReplyPathAllocationBudget pins the steady state of the reply path on
// a warmed simnet cluster of n = 4. A read-only Invoke allocates, at each
// replica, only the request it decodes and the result the service returns.
// The client's request, retry timer and tallies, the reply each replica
// builds, its reply cache and read-only queue, the client's decode of
// every reply, and the wire buffers (simnet releases them like udpnet)
// cost nothing.
func TestReplyPathAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	cfg := testConfig()
	cfg.StatusInterval = time.Hour // no status traffic while measuring
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	mustInvoke(t, cl, kvservice.Incr(), false)
	op := kvservice.Get()
	for i := 0; i < 50; i++ {
		mustInvoke(t, cl, op, true)
	}
	const n = 4
	const budget = n + n // request decodes, results
	// The slowest replica's reply may land after the last run ends, so the
	// floored average can read one below the budget.
	got := testing.AllocsPerRun(500, func() {
		if v := kvservice.DecodeU64(mustInvoke(t, cl, op, true)); v != 1 {
			t.Fatalf("read-only get returned %d, want 1", v)
		}
	})
	if got > budget {
		t.Errorf("%v allocations per read-only invoke, want at most %d", got, budget)
	} else {
		t.Logf("%v allocations per read-only invoke (budget %d)", got, budget)
	}
}

// TestInvokeAfterCancelGetsOwnResult cancels an invocation whose reply
// certificate completes after its caller stopped waiting but before the
// invocation ended, then invokes again on the same client, which reuses
// its tallies: the second call must return its own result, not the
// certificate the first one left behind.
func TestInvokeAfterCancelGetsOwnResult(t *testing.T) {
	c := newTestCluster(t, 4, testConfig(), nil)
	cl := c.NewClient()
	var hold atomic.Bool           // the replicas never hear a cancelled call
	held := make(chan struct{}, 1) // its request was sent, so it waits for replies
	c.Net.SetFilter(func(src, _ message.NodeID, p []byte) ([]byte, bool) {
		if hold.Load() && src == cl.ID() {
			select {
			case held <- struct{}{}:
			default:
			}
			return p, false
		}
		return p, true
	})
	stale := []byte("stale certificate")
	cancelled := 0
	for round := uint64(1); round <= 5; round++ {
		hold.Store(true)
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := cl.InvokeContext(ctx, kvservice.Incr(), false)
			errc <- err
		}()
		<-held
		// Cancel and complete a weak certificate under the client's lock:
		// the invocation, woken by ctx, ends only after the lock is
		// released, so the certificate completes after its caller gave up.
		cl.mu.Lock()
		cancel()
		ts := cl.pending.timestamp
		for r := message.NodeID(0); r < 2; r++ {
			cl.foldReply(&message.Reply{Timestamp: ts, Replica: r, HasResult: true,
				Result: stale, ResultDigest: crypto.DigestOf(stale)})
		}
		cl.mu.Unlock()
		// The certificate can still win if the invocation reached its
		// select only after both were ready.
		if err := <-errc; err == context.Canceled {
			cancelled++
		}
		hold.Store(false)
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if bytes.Equal(res, stale) {
			t.Fatalf("round %d: the call after a cancelled one returned the cancelled call's certificate", round)
		}
		if got := kvservice.DecodeU64(res); got != round {
			t.Fatalf("round %d: incr returned %d, want %d", round, got, round)
		}
	}
	if cancelled == 0 {
		t.Fatal("no invocation saw its cancellation, so no certificate was left behind")
	}
}
