package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"math/rand"
	"testing"
)

// referenceMAC is truncated HMAC-SHA-256 straight from crypto/hmac: the
// definition of a tag, and what the parent implementation computed per call.
func referenceMAC(key, payload []byte) MAC {
	h := hmac.New(sha256.New, key)
	h.Write(payload)
	var m MAC
	copy(m[:], h.Sum(nil))
	return m
}

// TestMACEqualsHMAC pins the wire format: the one-shot form and the
// precomputed-state form both produce exactly crypto/hmac's tag, for random
// keys (including the empty key and keys longer than a hash block, which
// HMAC hashes first) and payload sizes from 0 to 8 KiB, before and after the
// key tables rotate through RefreshIn and SetOut.
func TestMACEqualsHMAC(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	sizes := []int{0, 1, 31, 32, 55, 56, 63, 64, 65, 119, 120, 127, 128, 1000, 4096, 8191, 8192}
	for i := 0; i < 40; i++ {
		sizes = append(sizes, rng.Intn(8193))
	}
	keyLens := []int{0, 1, 16, 32, 63, 64, 65, 100, 200}

	const self, peer = 0, 1
	ks := NewKeyStore(self)
	ks.InstallInitial(peer)
	for round, keyLen := range keyLens {
		key := make([]byte, keyLen)
		rng.Read(key)
		// Round 0 checks the installed initial keys; every later round
		// rotates both directions first.
		if round > 0 {
			ks.SetOut(peer, key, uint32(round))
			ks.RefreshIn(peer, uint32(round), rng.Uint64())
		}
		outKey, _ := ks.OutKey(peer)
		inKey, _ := ks.InKey(peer)
		for _, n := range sizes {
			payload := make([]byte, n)
			rng.Read(payload)
			if got, want := ComputeMAC(key, payload), referenceMAC(key, payload); got != want {
				t.Fatalf("ComputeMAC(key %dB, payload %dB) = %x, hmac = %x", keyLen, n, got, want)
			}
			want := referenceMAC(outKey, payload)
			if got := ks.ComputePointMAC(peer, payload); got != want {
				t.Fatalf("round %d: ComputePointMAC(%dB) = %x, hmac = %x", round, n, got, want)
			}
			if got := ks.MakeAuthenticator(2, payload).MACs[peer]; got != want {
				t.Fatalf("round %d: MakeAuthenticator(%dB)[peer] = %x, hmac = %x", round, n, got, want)
			}
			in := referenceMAC(inKey, payload)
			if !ks.CheckPointMAC(peer, payload, in) {
				t.Fatalf("round %d: CheckPointMAC rejects hmac's tag over %dB", round, n)
			}
			a := Authenticator{Epoch: uint32(round), MACs: []MAC{self: in}}
			if !ks.CheckAuthenticator(peer, payload, a) {
				t.Fatalf("round %d: CheckAuthenticator rejects hmac's tag over %dB", round, n)
			}
		}
	}
}

func BenchmarkComputeMAC(b *testing.B) {
	key := DeriveKey("k", 0, 1)
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ComputeMAC(key, payload)
	}
}

// BenchmarkAuthenticator is one multicast's authentication at n = 4: three
// tags from the key table's precomputed states.
func BenchmarkAuthenticator(b *testing.B) {
	ks := NewKeyStore(0)
	for p := uint32(0); p < 4; p++ {
		ks.InstallInitial(p)
	}
	payload := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ks.MakeAuthenticator(4, payload)
	}
}
