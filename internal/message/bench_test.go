package message

import (
	"testing"

	"repro/internal/crypto"
)

func benchPP() *PrePrepare {
	pp := &PrePrepare{View: 3, Seq: 1000, Replica: 0, NonDet: make([]byte, 8)}
	for i := 0; i < 8; i++ {
		pp.Inline = append(pp.Inline, Request{
			Client:    ClientIDBase + NodeID(i),
			Timestamp: uint64(i),
			Replier:   NoNode,
			Op:        make([]byte, 100),
			Auth: Auth{Kind: AuthVector, Vector: crypto.Authenticator{
				MACs: make([]crypto.MAC, 4)}},
		})
	}
	return pp
}

func BenchmarkMarshalPrePrepare(b *testing.B) {
	pp := benchPP()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = pp.Marshal()
	}
}

func BenchmarkUnmarshalPrePrepare(b *testing.B) {
	raw := benchPP().Marshal()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalPrepare(b *testing.B) {
	p := &Prepare{View: 1, Seq: 2, Replica: 3,
		Auth: Auth{Kind: AuthVector, Vector: crypto.Authenticator{MACs: make([]crypto.MAC, 4)}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = p.Marshal()
	}
}

func BenchmarkBatchDigest16(b *testing.B) {
	ds := make([]crypto.Digest, 16)
	for i := range ds {
		ds[i] = crypto.DigestOf([]byte{byte(i)})
	}
	for i := 0; i < b.N; i++ {
		_ = BatchDigest(ds, nil)
	}
}

// BenchmarkVerifyInPlace is the receive path for one agreement message:
// decode a prepare as captured off the wire and check the MAC addressed to
// this replica over the received body bytes, without re-encoding them.
func BenchmarkVerifyInPlace(b *testing.B) {
	tx, rx := crypto.NewKeyStore(1), crypto.NewKeyStore(0)
	for p := uint32(0); p < 4; p++ {
		tx.InstallInitial(p)
	}
	rx.InstallInitial(1)
	prep := &Prepare{View: 2, Seq: 9, Replica: 1}
	prep.Auth = Auth{Kind: AuthVector, Vector: tx.MakeAuthenticator(4, prep.Payload())}
	raw := prep.Marshal()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := Unmarshal(raw)
		if err != nil {
			b.Fatal(err)
		}
		if !rx.CheckAuthenticator(uint32(m.Sender()), m.Payload(), m.AuthTrailer().Vector) {
			b.Fatal("authentic prepare rejected")
		}
	}
}
