package ingress

import (
	"fmt"
	"testing"

	"repro/internal/crypto"
	"repro/internal/message"
)

// makeAuthedRequests marshals count requests from sender, MAC'd for
// receiver 0 of a 4-principal group, with opSize bytes of operation.
func makeAuthedRequests(sender uint32, count, opSize int) ([][]byte, *crypto.KeyStore) {
	cks := crypto.NewKeyStore(sender)
	rks := crypto.NewKeyStore(0)
	for i := uint32(0); i < 4; i++ {
		cks.InstallInitial(i)
	}
	rks.InstallInitial(sender)
	raws := make([][]byte, count)
	for i := 0; i < count; i++ {
		req := &message.Request{
			Client:    message.NodeID(sender),
			Timestamp: uint64(i + 1),
			Replier:   message.NoNode,
			Op:        make([]byte, opSize),
		}
		req.Auth = message.Auth{
			Kind:   message.AuthVector,
			Vector: cks.MakeAuthenticator(4, req.Payload()),
		}
		raws[i] = req.Marshal()
	}
	return raws, rks
}

func keystoreVerifier(rks *crypto.KeyStore) Verifier {
	return VerifierFunc(func(m message.Message) (bool, uint64) {
		a := m.AuthTrailer()
		if a.Kind != message.AuthVector {
			return false, rks.Generation()
		}
		ok := rks.CheckAuthenticator(uint32(m.Sender()), m.Payload(), a.Vector)
		return ok, rks.Generation()
	})
}

// TestPipelinePreservesOrder submits a per-sender sequence and checks the
// sink sees each message before Submit returns, so delivery order is
// submission order. The workers argument is ignored; every value the API
// accepts must behave the same.
func TestPipelinePreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 500
			raws, rks := makeAuthedRequests(1000, n, 16)

			var got []uint64
			p := New(workers, 0, keystoreVerifier(rks), func(m message.Message, ok bool, _ uint64) {
				if !ok {
					t.Error("authentic message failed verification")
				}
				got = append(got, m.(*message.Request).Timestamp)
			})
			defer p.Close()

			for i, raw := range raws {
				if !p.Submit(raw) {
					t.Fatalf("submit %d rejected", i)
				}
				if len(got) != i+1 || got[i] != uint64(i+1) {
					t.Fatalf("after submit %d the sink holds %v", i, got[max(0, len(got)-3):])
				}
			}
		})
	}
}

// TestPipelineVerdicts checks forged and undecodable datagrams: garbage is
// refused before the sink and counted as a decode failure, a bad MAC
// arrives with verified=false and is counted as an auth failure.
func TestPipelineVerdicts(t *testing.T) {
	raws, rks := makeAuthedRequests(1000, 2, 16)
	forged, _ := makeAuthedRequests(1001, 1, 16) // MAC'd with wrong keys
	// rks only knows peer 1000, so 1001's MAC cannot verify.

	type verdict struct {
		ts uint64
		ok bool
	}
	var got []verdict
	p := New(0, 0, keystoreVerifier(rks), func(m message.Message, ok bool, _ uint64) {
		got = append(got, verdict{m.(*message.Request).Timestamp, ok})
	})
	defer p.Close()

	for i, c := range []struct {
		raw  []byte
		want bool
	}{
		{raws[0], true},
		{[]byte{0xFF, 0x00, 0x01}, false}, // bad tag: refused before the sink
		{forged[0], true},
		{raws[1], true},
	} {
		if got := p.Submit(c.raw); got != c.want {
			t.Fatalf("submit %d reported %v, want %v", i, got, c.want)
		}
	}
	want := []verdict{{1, true}, {1, false}, {2, true}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("sink saw %+v, want %+v", got, want)
	}
	if s := p.Stats(); s.DecodeFailed != 1 || s.AuthFailed != 1 || s.Rejected != 0 {
		t.Fatalf("stats = %+v, want DecodeFailed=1 AuthFailed=1 Rejected=0", s)
	}
}

// TestPipelineSubmitAfterClose checks the post-Close contract.
func TestPipelineSubmitAfterClose(t *testing.T) {
	raws, rks := makeAuthedRequests(1000, 1, 16)
	p := New(0, 0, keystoreVerifier(rks), func(message.Message, bool, uint64) {
		t.Error("sink invoked after Close")
	})
	p.Close()
	if p.Submit(raws[0]) {
		t.Fatal("Submit accepted a datagram after Close")
	}
	p.Close() // idempotent
	if s := p.Stats(); s.Rejected != 1 {
		t.Fatalf("stats = %+v, want Rejected=1", s)
	}
}
