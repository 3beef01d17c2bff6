package message

import (
	"testing"

	"repro/internal/crypto"
)

// TestAuthPathAllocationBudget pins what the authentication hot path may
// allocate: nothing per tag, at most the returned vector per authenticator,
// and for a received prepare or 4 KiB request only the message object
// itself: decoding copies no bytes. A prepare decoded into a reused target
// costs nothing.
func TestAuthPathAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	key := crypto.DeriveKey("k", 0, 1)
	payload := make([]byte, 64)
	tx, rx := crypto.NewKeyStore(1), crypto.NewKeyStore(0)
	for p := uint32(0); p < 4; p++ {
		tx.InstallInitial(p)
	}
	rx.InstallInitial(1)
	auth := tx.MakeAuthenticator(4, payload)
	point := tx.ComputePointMAC(0, payload)
	var macs [8]crypto.MAC

	prep := &Prepare{View: 2, Seq: 9, Digest: crypto.DigestOf(payload), Replica: 1}
	prep.Auth = Auth{Kind: AuthVector, Vector: tx.MakeAuthenticator(4, prep.Payload())}
	datagram := prep.Marshal()
	reused := new(Prepare)
	req := &Request{Client: ClientIDBase, Timestamp: 1, Op: make([]byte, 4096)}
	req.Auth = Auth{Kind: AuthVector, Vector: tx.MakeAuthenticator(4, req.Payload())}
	reqDatagram := req.Marshal()

	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"ComputeMAC", 0, func() { crypto.ComputeMAC(key, payload) }},
		{"ComputePointMAC", 0, func() { tx.ComputePointMAC(0, payload) }},
		{"CheckAuthenticator", 0, func() {
			if !rx.CheckAuthenticator(1, payload, auth) {
				t.Fatal("authentic vector rejected")
			}
		}},
		{"CheckPointMAC", 0, func() {
			if !rx.CheckPointMAC(1, payload, point) {
				t.Fatal("authentic tag rejected")
			}
		}},
		{"MakeAuthenticator(4)", 1, func() { tx.MakeAuthenticator(4, payload) }},
		{"AppendAuthenticator(4)", 0, func() { tx.AppendAuthenticator(macs[:0], 4, payload) }},
		{"Request.Digest", 0, func() { (&Request{Client: ClientIDBase, Timestamp: 1, Op: payload}).Digest() }},
		{"decode+verify prepare", 1, func() {
			m, err := Unmarshal(datagram)
			if err != nil {
				t.Fatal(err)
			}
			if !rx.CheckAuthenticator(uint32(m.Sender()), m.Payload(), m.AuthTrailer().Vector) {
				t.Fatal("authentic prepare rejected")
			}
		}},
		{"decode into a reused prepare+verify", 0, func() {
			if err := reused.Decode(datagram); err != nil {
				t.Fatal(err)
			}
			if !rx.CheckAuthenticator(uint32(reused.Sender()), reused.Payload(), reused.Auth.Vector) {
				t.Fatal("authentic prepare rejected")
			}
		}},
		{"decode+verify 4 KiB request", 1, func() {
			m, err := Unmarshal(reqDatagram)
			if err != nil {
				t.Fatal(err)
			}
			if !rx.CheckAuthenticator(1, m.Payload(), m.AuthTrailer().Vector) {
				t.Fatal("authentic request rejected")
			}
		}},
	} {
		if got := testing.AllocsPerRun(200, c.f); got > c.max {
			t.Errorf("%s: %v allocs per call, want at most %v", c.name, got, c.max)
		} else {
			t.Logf("%s: %v allocs per call", c.name, got)
		}
	}
}
