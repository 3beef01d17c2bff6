package pbft

import (
	"bytes"
	"testing"

	"repro/internal/crypto"
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
			p := newPendingInvoke(7, need, n, tc.readOnly)
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
