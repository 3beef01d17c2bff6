package message

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalRoundTrip feeds arbitrary bytes to the codec. Whatever
// decodes must re-encode to a fixed point: Marshal(Unmarshal(b)) decodes
// again and re-encodes identically. This pins both directions of every
// message codec against drift (the bftwire analyzer checks field coverage
// statically; this checks the byte-level encodings dynamically).
//
// A decoded message also remembers the body bytes it arrived as and, for
// requests and pre-prepares, its digest. Neither may ever disagree with the
// decoded fields: the remembered body must be what a message rebuilt from
// those fields encodes to (decoding is strict, one encoding per value), and
// the remembered digests must be what it hashes to — on the decoded object,
// on a by-value copy, and across a client-style retransmission rewrite
// (Replier changed, trailer replaced).
func FuzzUnmarshalRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Request{Client: ClientIDBase, Timestamp: 9, Replier: NoNode,
		Op: []byte("operation")}).Marshal())
	f.Add((&PrePrepare{View: 3, Seq: 17, Replica: 1,
		Inline: []Request{{Client: ClientIDBase, Timestamp: 1, Replier: NoNode,
			Op: []byte("op")}}}).Marshal())
	f.Add((&Reply{View: 1, Timestamp: 4, Client: ClientIDBase, Replica: 2,
		HasResult: true, Result: []byte("r")}).Marshal())
	f.Add((&Checkpoint{Seq: 128, Replica: 0}).Marshal())
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			return
		}
		checkRemembered(t, m)
		b2 := m.Marshal()
		if !bytes.Equal(b, b2) {
			t.Fatalf("decoding accepted a second encoding of one value:\n   in %x\n  out %x", b, b2)
		}
		m2, err := Unmarshal(b2)
		if err != nil {
			t.Fatalf("re-encode of decoded message does not decode: %v", err)
		}
		if b3 := m2.Marshal(); !bytes.Equal(b2, b3) {
			t.Fatalf("Marshal/Unmarshal not a fixed point:\n first %x\nsecond %x", b2, b3)
		}
	})
}

// checkRemembered compares what the decoder remembered about m against a
// message rebuilt from m's exported fields alone, which remembers nothing.
func checkRemembered(t *testing.T, m Message) {
	t.Helper()
	fresh := rebuilt(m)
	if got, want := m.Payload(), fresh.Payload(); !bytes.Equal(got, want) {
		t.Fatalf("%s: remembered body differs from a fresh encoding:\n remembered %x\n      fresh %x",
			m.MsgType(), got, want)
	}
	if got, want := AppendPayload(nil, m), fresh.Payload(); !bytes.Equal(got, want) {
		t.Fatalf("%s: AppendPayload differs from a fresh encoding", m.MsgType())
	}
	switch m := m.(type) {
	case *Request:
		checkRequestDigest(t, m, fresh.(*Request))
	case *PrePrepare:
		if m.BatchDigest() != fresh.(*PrePrepare).BatchDigest() {
			t.Fatal("pre-prepare: remembered batch digest differs from a fresh recompute")
		}
		for i := range m.Inline {
			checkRemembered(t, &m.Inline[i])
		}
	}
}

func checkRequestDigest(t *testing.T, m, fresh *Request) {
	t.Helper()
	want := fresh.Digest()
	if m.Digest() != want {
		t.Fatal("request: remembered digest differs from a fresh recompute")
	}
	// By value, as buildPrePrepare copies a stored request into Inline.
	cp := *m
	if cp.Digest() != want || !bytes.Equal(cp.Payload(), fresh.Payload()) {
		t.Fatal("request: by-value copy lost or corrupted what the original remembered")
	}
	// Retransmission: the client redirects the reply and seals again. The
	// digest does not cover Replier and must hold; the body does and must
	// follow the field, which replacing the trailer guarantees.
	cp.Replier = NoNode - 1
	cp.Auth = Auth{Kind: AuthMAC}
	rewritten := *fresh
	rewritten.Replier = NoNode - 1
	if cp.Digest() != want {
		t.Fatal("request: digest moved with Replier")
	}
	if !bytes.Equal(cp.Payload(), rewritten.Payload()) {
		t.Fatal("request: body after a Replier rewrite is not the rewritten request's encoding")
	}
	if !bytes.Equal(m.Payload(), fresh.Payload()) {
		t.Fatal("request: rewriting a copy disturbed the original")
	}
}
