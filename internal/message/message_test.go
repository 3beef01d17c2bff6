package message

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/crypto"
)

func randDigest(r *rand.Rand) crypto.Digest {
	var d crypto.Digest
	r.Read(d[:])
	return d
}

func randAuth(r *rand.Rand) Auth {
	switch r.Intn(4) {
	case 0:
		return Auth{Kind: AuthNone}
	case 1:
		macs := make([]crypto.MAC, 4)
		for i := range macs {
			r.Read(macs[i][:])
		}
		return Auth{Kind: AuthVector, Vector: crypto.Authenticator{Epoch: r.Uint32(), MACs: macs}}
	case 2:
		var m crypto.MAC
		r.Read(m[:])
		return Auth{Kind: AuthMAC, MAC: m}
	default:
		sig := make([]byte, crypto.SigSize)
		r.Read(sig)
		return Auth{Kind: AuthSig, Sig: sig}
	}
}

func randBytes(r *rand.Rand, maxLen int) []byte {
	b := make([]byte, r.Intn(maxLen+1))
	r.Read(b)
	return b
}

// rebuilt returns a copy of m holding only its exported fields, recursively:
// the message a sender would have built by hand, with nothing the decoder
// remembered. Slices are shared with m.
func rebuilt(m Message) Message {
	src := reflect.ValueOf(m).Elem()
	dst := reflect.New(src.Type())
	copyExported(dst.Elem(), src)
	return dst.Interface().(Message)
}

func copyExported(dst, src reflect.Value) {
	switch src.Kind() {
	case reflect.Struct:
		for i := 0; i < src.NumField(); i++ {
			if src.Type().Field(i).IsExported() {
				copyExported(dst.Field(i), src.Field(i))
			}
		}
	case reflect.Slice:
		if src.IsNil() {
			return
		}
		if src.Type().Elem().Kind() != reflect.Struct {
			dst.Set(src)
			return
		}
		dst.Set(reflect.MakeSlice(src.Type(), src.Len(), src.Len()))
		for i := 0; i < src.Len(); i++ {
			copyExported(dst.Index(i), src.Index(i))
		}
	default:
		dst.Set(src)
	}
}

// roundTrip marshals, unmarshals via the tag dispatcher, and compares.
func roundTrip(t *testing.T, m Message) {
	t.Helper()
	b := m.Marshal()
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("%s: unmarshal: %v", m.MsgType(), err)
	}
	// A decoded message additionally remembers its wire bytes and digests
	// (unexported); the comparison is over what the sender set.
	if !reflect.DeepEqual(m, rebuilt(got)) {
		t.Fatalf("%s: round trip mismatch:\n  sent %#v\n  got  %#v", m.MsgType(), m, got)
	}
	// Payload must be a strict prefix of Marshal (body||auth framing).
	p := m.Payload()
	if !bytes.HasPrefix(b, p) {
		t.Fatalf("%s: payload is not a prefix of marshal", m.MsgType())
	}
}

func TestRequestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 50; i++ {
		m := &Request{
			Client:    ClientIDBase + NodeID(r.Intn(100)),
			Timestamp: r.Uint64(),
			Flags:     uint8(r.Intn(4)),
			Replier:   NodeID(r.Intn(4)),
			Op:        randBytes(r, 300),
			Auth:      randAuth(r),
		}
		roundTrip(t, m)
	}
}

func TestReplyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 50; i++ {
		m := &Reply{
			View:         View(r.Uint64()),
			Timestamp:    r.Uint64(),
			Client:       ClientIDBase,
			Replica:      NodeID(r.Intn(7)),
			Tentative:    r.Intn(2) == 0,
			HasResult:    r.Intn(2) == 0,
			Result:       randBytes(r, 4096),
			ResultDigest: randDigest(r),
			Auth:         randAuth(r),
		}
		roundTrip(t, m)
	}
}

func TestPrePrepareRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 30; i++ {
		ni := r.Intn(4)
		inline := make([]Request, ni)
		for j := range inline {
			inline[j] = Request{
				Client:    ClientIDBase + NodeID(j),
				Timestamp: r.Uint64(),
				Replier:   NoNode,
				Op:        randBytes(r, 100),
				Auth:      randAuth(r),
			}
		}
		nd := r.Intn(5)
		digests := make([]crypto.Digest, nd)
		for j := range digests {
			digests[j] = randDigest(r)
		}
		m := &PrePrepare{
			View:    View(r.Uint64()),
			Seq:     Seq(r.Uint64()),
			Inline:  inline,
			Digests: digests,
			NonDet:  randBytes(r, 16),
			Replica: NodeID(r.Intn(4)),
			Auth:    randAuth(r),
		}
		roundTrip(t, m)
	}
}

func TestPreparesCommitsCheckpoints(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	for i := 0; i < 30; i++ {
		roundTrip(t, &Prepare{View: View(r.Uint64()), Seq: Seq(r.Uint64()),
			Digest: randDigest(r), Replica: NodeID(r.Intn(4)), Auth: randAuth(r)})
		roundTrip(t, &Commit{View: View(r.Uint64()), Seq: Seq(r.Uint64()),
			Digest: randDigest(r), Replica: NodeID(r.Intn(4)), Auth: randAuth(r)})
		roundTrip(t, &Checkpoint{Seq: Seq(r.Uint64()),
			Digest: randDigest(r), Replica: NodeID(r.Intn(4)), Auth: randAuth(r)})
	}
}

func TestViewChangeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		nc := r.Intn(3)
		ck := make([]CkptInfo, nc)
		for j := range ck {
			ck[j] = CkptInfo{Seq: Seq(r.Uint64()), Digest: randDigest(r)}
		}
		np := r.Intn(4)
		ps := make([]PInfo, np)
		for j := range ps {
			ps[j] = PInfo{Seq: Seq(r.Uint64()), Digest: randDigest(r), View: View(r.Uint64())}
		}
		nq := r.Intn(4)
		qs := make([]QInfo, nq)
		for j := range qs {
			ne := 1 + r.Intn(3)
			es := make([]DV, ne)
			for k := range es {
				es[k] = DV{Digest: randDigest(r), View: View(r.Uint64())}
			}
			qs[j] = QInfo{Seq: Seq(r.Uint64()), Entries: es}
		}
		m := &ViewChange{
			NewView: View(r.Uint64()),
			H:       Seq(r.Uint64()),
			Ckpts:   ck, P: ps, Q: qs,
			Replica: NodeID(r.Intn(7)),
			Auth:    randAuth(r),
		}
		roundTrip(t, m)
	}
}

func TestViewChangeAckNewViewRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 30; i++ {
		roundTrip(t, &ViewChangeAck{View: View(r.Uint64()), Replica: NodeID(r.Intn(4)),
			Source: NodeID(r.Intn(4)), VCDigest: randDigest(r), Auth: randAuth(r)})
		nv := r.Intn(4)
		vs := make([]VCSummary, nv)
		for j := range vs {
			vs[j] = VCSummary{Replica: NodeID(r.Intn(4)), VCDigest: randDigest(r)}
		}
		nx := r.Intn(5)
		xs := make([]SeqDigest, nx)
		for j := range xs {
			xs[j] = SeqDigest{Seq: Seq(r.Uint64()), Digest: randDigest(r)}
		}
		roundTrip(t, &NewView{View: View(r.Uint64()), V: vs, CkptSeq: Seq(r.Uint64()),
			CkptDigest: randDigest(r), X: xs, Replica: NodeID(r.Intn(4)), Auth: randAuth(r)})
	}
}

func TestStatusRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 30; i++ {
		roundTrip(t, &StatusActive{View: View(r.Uint64()), LastStable: Seq(r.Uint64()),
			LastExec: Seq(r.Uint64()), Replica: NodeID(r.Intn(4)),
			Prepared: randBytes(r, 32), Committed: randBytes(r, 32), Auth: randAuth(r)})
		roundTrip(t, &StatusPending{View: View(r.Uint64()), LastStable: Seq(r.Uint64()),
			LastExec: Seq(r.Uint64()), Replica: NodeID(r.Intn(4)),
			HasNewView: r.Intn(2) == 0, VCs: randBytes(r, 4), Auth: randAuth(r)})
	}
}

func TestStateTransferRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for i := 0; i < 30; i++ {
		roundTrip(t, &Fetch{Level: uint8(r.Intn(4)), Index: r.Uint64(),
			LastKnown: Seq(r.Uint64()), Target: Seq(r.Uint64()),
			Replier: NodeID(r.Intn(4)), Replica: NodeID(r.Intn(4)), Auth: randAuth(r)})
		np := r.Intn(5)
		parts := make([]PartInfo, np)
		for j := range parts {
			parts[j] = PartInfo{Index: r.Uint64(), LastMod: Seq(r.Uint64()), Digest: randDigest(r)}
		}
		roundTrip(t, &MetaData{Seq: Seq(r.Uint64()), Level: uint8(r.Intn(4)),
			Index: r.Uint64(), LastMod: Seq(r.Uint64()), Parts: parts,
			Extra: randBytes(r, 64), Replica: NodeID(r.Intn(4)), Auth: randAuth(r)})
		roundTrip(t, &Data{Index: r.Uint64(), LastMod: Seq(r.Uint64()),
			Page: randBytes(r, 4096), Replica: NodeID(r.Intn(4)), Auth: randAuth(r)})
	}
}

func TestRecoveryMessagesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 30; i++ {
		nk := r.Intn(4)
		peers := make([]NodeID, nk)
		keys := make([][]byte, nk)
		for j := range keys {
			peers[j] = NodeID(j)
			keys[j] = randBytes(r, 16)
		}
		roundTrip(t, &NewKey{Replica: NodeID(r.Intn(4)), Epoch: r.Uint32(),
			Counter: r.Uint64(), Peers: peers, Keys: keys, Auth: randAuth(r)})
		roundTrip(t, &QueryStable{Replica: NodeID(r.Intn(4)), Nonce: r.Uint64(), Auth: randAuth(r)})
		roundTrip(t, &ReplyStable{LastCkpt: Seq(r.Uint64()), LastPrepared: Seq(r.Uint64()),
			Replica: NodeID(r.Intn(4)), Nonce: r.Uint64(), Auth: randAuth(r)})
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("empty buffer accepted")
	}
	if _, err := Unmarshal([]byte{0xEE}); err == nil {
		t.Fatal("unknown tag accepted")
	}
	m := &Prepare{View: 1, Seq: 2, Replica: 3}
	b := m.Marshal()
	for _, cut := range []int{1, 5, len(b) - 1} {
		if _, err := Unmarshal(b[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := Unmarshal(append(b, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// Property: truncating any valid encoding never panics and never yields a
// valid message of another length.
func TestTruncationNeverPanics(t *testing.T) {
	f := func(op []byte, ts uint64, cut uint8) bool {
		m := &Request{Client: ClientIDBase, Timestamp: ts, Replier: NoNode, Op: op}
		b := m.Marshal()
		c := int(cut) % (len(b) + 1)
		_, err := Unmarshal(b[:c])
		return c == len(b) || err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestDigestProperties(t *testing.T) {
	a := &Request{Client: ClientIDBase, Timestamp: 1, Op: []byte("op")}
	b := &Request{Client: ClientIDBase, Timestamp: 1, Op: []byte("op")}
	if a.Digest() != b.Digest() {
		t.Fatal("equal requests have different digests")
	}
	c := &Request{Client: ClientIDBase, Timestamp: 2, Op: []byte("op")}
	if a.Digest() == c.Digest() {
		t.Fatal("different timestamps collided")
	}
	d := &Request{Client: ClientIDBase + 1, Timestamp: 1, Op: []byte("op")}
	if a.Digest() == d.Digest() {
		t.Fatal("different clients collided")
	}
	// The replier choice must NOT affect the request digest: different
	// clients may designate different repliers for the same logical request.
	e := &Request{Client: ClientIDBase, Timestamp: 1, Op: []byte("op"), Replier: 2}
	if a.Digest() != e.Digest() {
		t.Fatal("replier field changed request identity")
	}
}

func TestBatchDigest(t *testing.T) {
	d1 := crypto.DigestOf([]byte("r1"))
	d2 := crypto.DigestOf([]byte("r2"))
	a := BatchDigest([]crypto.Digest{d1, d2}, nil)
	b := BatchDigest([]crypto.Digest{d2, d1}, nil)
	if a == b {
		t.Fatal("batch digest must depend on request order")
	}
	c := BatchDigest([]crypto.Digest{d1, d2}, []byte("nd"))
	if a == c {
		t.Fatal("batch digest must cover the non-deterministic value")
	}
}

func TestPrePrepareBatchDigestMatchesParts(t *testing.T) {
	req := Request{Client: ClientIDBase, Timestamp: 9, Replier: NoNode, Op: []byte("x")}
	sep := crypto.DigestOf([]byte("separate"))
	pp := &PrePrepare{View: 3, Seq: 7, Inline: []Request{req}, Digests: []crypto.Digest{sep}}
	want := BatchDigest([]crypto.Digest{req.Digest(), sep}, nil)
	if pp.BatchDigest() != want {
		t.Fatal("BatchDigest mismatch")
	}
	// Order matters: inline requests first, then the separate digests.
	if pp.BatchDigest() == BatchDigest([]crypto.Digest{sep, req.Digest()}, nil) {
		t.Fatal("BatchDigest ignores the inline-then-separate order")
	}
}

func TestNodeIDSpaces(t *testing.T) {
	if NodeID(0).IsClient() || NodeID(999).IsClient() {
		t.Fatal("replica ids classified as clients")
	}
	if !ClientIDBase.IsClient() {
		t.Fatal("client base not a client")
	}
}

func TestTypeString(t *testing.T) {
	if TRequest.String() != "request" || TNewView.String() != "new-view" {
		t.Fatal("type names wrong")
	}
	if Type(200).String() != "unknown" {
		t.Fatal("unknown tag not reported")
	}
}

func TestViewChangeEntryLookups(t *testing.T) {
	vc := &ViewChange{
		P: []PInfo{{Seq: 5, Digest: crypto.DigestOf([]byte("a")), View: 2}},
		Q: []QInfo{{Seq: 5, Entries: []DV{{Digest: crypto.DigestOf([]byte("a")), View: 2}}}},
	}
	if _, ok := vc.PEntry(5); !ok {
		t.Fatal("PEntry(5) missing")
	}
	if _, ok := vc.PEntry(6); ok {
		t.Fatal("PEntry(6) found")
	}
	if _, ok := vc.QEntry(5); !ok {
		t.Fatal("QEntry(5) missing")
	}
	if _, ok := vc.QEntry(4); ok {
		t.Fatal("QEntry(4) found")
	}
}

func TestViewChangeDigestCoversBody(t *testing.T) {
	a := &ViewChange{NewView: 2, H: 0, Replica: 1}
	b := &ViewChange{NewView: 2, H: 0, Replica: 1}
	if a.Digest() != b.Digest() {
		t.Fatal("identical view-changes digest differently")
	}
	b.H = 128
	if a.Digest() == b.Digest() {
		t.Fatal("H not covered by digest")
	}
	// The authenticator must not affect the digest (acks reference the body).
	c := &ViewChange{NewView: 2, H: 0, Replica: 1, Auth: Auth{Kind: AuthMAC}}
	if a.Digest() != c.Digest() {
		t.Fatal("auth trailer leaked into view-change digest")
	}
}
