package message

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/crypto"
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
//
// Prepares, commits and replies are also decoded into one reused target
// each, the way a replica decodes every vote and a client every reply it
// gets, after filling the target with a different message first: what the
// target holds must be exactly what a fresh Unmarshal returns.
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
	for _, a := range fuzzTrailers {
		f.Add((&Prepare{View: 1, Seq: 2, Digest: crypto.Digest{3}, Replica: 1, Auth: a}).Marshal())
		f.Add((&Commit{View: 4, Seq: 5, Digest: crypto.Digest{6}, Replica: 2, Auth: a}).Marshal())
	}
	for _, a := range fuzzTrailers {
		f.Add((&Reply{View: 2, Timestamp: 5, Client: ClientIDBase + 1, Replica: 3,
			Tentative: true, ResultDigest: crypto.Digest{4}, Auth: a}).Marshal())
	}
	var targets reusedTargets
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		checkReusedDecode(t, &targets, b, m, err)
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

// fuzzTrailers are trailers of every kind, including a MAC vector longer
// than crypto.SmallGroup, which decodes onto the heap rather than into the
// trailer.
var fuzzTrailers = []Auth{
	{Kind: AuthNone},
	{Kind: AuthVector, Vector: crypto.Authenticator{Epoch: 7, MACs: []crypto.MAC{{1}, {2}, {3}, {4}}}},
	{Kind: AuthVector, Vector: crypto.Authenticator{Epoch: 8, MACs: make([]crypto.MAC, crypto.SmallGroup+5)}},
	{Kind: AuthMAC, MAC: crypto.MAC{9}},
	{Kind: AuthSig, Sig: []byte("signature")},
}

// reusedTargets are the decode targets a receiver reuses across messages.
type reusedTargets struct {
	prep   Prepare
	commit Commit
	rep    Reply
}

// checkReusedDecode decodes b into the reused target of its type, first
// filled with a different message, and compares the result with
// Unmarshal's (m, err).
func checkReusedDecode(t *testing.T, rt *reusedTargets, b []byte, m Message, err error) {
	t.Helper()
	if len(b) == 0 {
		return
	}
	dirtyAuth := fuzzTrailers[len(b)%len(fuzzTrailers)]
	var target Message
	var decodeErr error
	switch Type(b[0]) {
	case TPrepare:
		dirty := &Prepare{View: 99, Seq: 98, Digest: crypto.Digest{97}, Replica: 96, Auth: dirtyAuth}
		if err := rt.prep.Decode(dirty.Marshal()); err != nil {
			t.Fatalf("decoding a well-formed prepare: %v", err)
		}
		target, decodeErr = &rt.prep, rt.prep.Decode(b)
	case TCommit:
		dirty := &Commit{View: 99, Seq: 98, Digest: crypto.Digest{97}, Replica: 96, Auth: dirtyAuth}
		if err := rt.commit.Decode(dirty.Marshal()); err != nil {
			t.Fatalf("decoding a well-formed commit: %v", err)
		}
		target, decodeErr = &rt.commit, rt.commit.Decode(b)
	case TReply:
		dirty := &Reply{View: 99, Timestamp: 98, Client: ClientIDBase + 97, Replica: 96,
			Tentative: true, HasResult: true, Result: []byte("stale result"),
			ResultDigest: crypto.Digest{95}, Auth: dirtyAuth}
		if err := rt.rep.Decode(dirty.Marshal()); err != nil {
			t.Fatalf("decoding a well-formed reply: %v", err)
		}
		target, decodeErr = &rt.rep, rt.rep.Decode(b)
	default:
		return
	}
	if (decodeErr == nil) != (err == nil) {
		t.Fatalf("%s: Decode into a reused target says %v, Unmarshal says %v", Type(b[0]), decodeErr, err)
	}
	if err != nil {
		return
	}
	got, want := target.AuthTrailer(), m.AuthTrailer()
	if got.Kind != want.Kind || got.Vector.Epoch != want.Vector.Epoch ||
		len(got.Vector.MACs) != len(want.Vector.MACs) ||
		!reflect.DeepEqual(got.Vector.MACs, want.Vector.MACs) ||
		got.MAC != want.MAC || !bytes.Equal(got.Sig, want.Sig) {
		t.Fatalf("%s: reused target's trailer %+v differs from a fresh decode's %+v", m.MsgType(), *got, *want)
	}
	if !bytes.Equal(target.Payload(), m.Payload()) || !bytes.Equal(Wire(target), Wire(m)) {
		t.Fatalf("%s: reused target's body differs from a fresh decode's", m.MsgType())
	}
	if !reflect.DeepEqual(target, m) {
		t.Fatalf("%s: reused target %+v differs from a fresh decode %+v", m.MsgType(), target, m)
	}
}
