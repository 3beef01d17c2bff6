package crypto

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDigestDeterministic(t *testing.T) {
	a := DigestOf([]byte("hello"), []byte("world"))
	b := DigestOf([]byte("hello"), []byte("world"))
	if a != b {
		t.Fatal("same input produced different digests")
	}
	c := DigestOf([]byte("helloworld"))
	if a != c {
		t.Fatal("digest must be over concatenation")
	}
}

func TestDigestDistinct(t *testing.T) {
	a := DigestOf([]byte("a"))
	b := DigestOf([]byte("b"))
	if a == b {
		t.Fatal("distinct inputs collided")
	}
	if a.IsZero() {
		t.Fatal("digest of non-empty input is zero")
	}
	if !ZeroDigest.IsZero() {
		t.Fatal("ZeroDigest not zero")
	}
}

func TestDigestOfU64IncludesNumbers(t *testing.T) {
	a := DigestOfU64([]uint64{1, 2}, []byte("x"))
	b := DigestOfU64([]uint64{1, 3}, []byte("x"))
	if a == b {
		t.Fatal("numeric header ignored by digest")
	}
}

func TestMACRoundTrip(t *testing.T) {
	key := DeriveKey("k", 1, 2)
	payload := []byte("some message payload")
	m := ComputeMAC(key, payload)
	if ComputeMAC(key, payload) != m {
		t.Fatal("MAC not deterministic")
	}
	if ComputeMAC(key, append(payload, 'x')) == m {
		t.Fatal("MAC unchanged for modified payload")
	}
	other := DeriveKey("k", 2, 1)
	if ComputeMAC(other, payload) == m {
		t.Fatal("MAC unchanged under another key")
	}
}

func TestSignVerify(t *testing.T) {
	kp := GenerateKeyPair([]byte("replica-0"))
	payload := []byte("view-change body")
	sig := kp.Sign(payload)
	if len(sig) != SigSize {
		t.Fatalf("signature size %d, want %d", len(sig), SigSize)
	}
	if !Verify(kp.Public, payload, sig) {
		t.Fatal("valid signature rejected")
	}
	if Verify(kp.Public, []byte("other"), sig) {
		t.Fatal("signature verified for different payload")
	}
	kp2 := GenerateKeyPair([]byte("replica-1"))
	if Verify(kp2.Public, payload, sig) {
		t.Fatal("signature verified under wrong key")
	}
	if Verify(kp.Public, payload, sig[:10]) {
		t.Fatal("truncated signature verified")
	}
}

func TestKeyPairDeterministic(t *testing.T) {
	a := GenerateKeyPair([]byte("seed"))
	b := GenerateKeyPair([]byte("seed"))
	if string(a.Public) != string(b.Public) {
		t.Fatal("same seed produced different keys")
	}
}

// Property: Add/Sub are inverse, commutative, associative — the algebra the
// incremental partition-tree digests depend on.
func TestIncrAddSubInverse(t *testing.T) {
	f := func(a, b [32]byte) bool {
		x, y := IncrOf(Digest(a)), IncrOf(Digest(b))
		return x.Add(y).Sub(y) == x && x.Add(y).Sub(x) == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIncrCommutativeAssociative(t *testing.T) {
	f := func(a, b, c [32]byte) bool {
		x, y, z := IncrOf(Digest(a)), IncrOf(Digest(b)), IncrOf(Digest(c))
		if x.Add(y) != y.Add(x) {
			return false
		}
		return x.Add(y).Add(z) == x.Add(y.Add(z))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIncrDigestRoundTrip(t *testing.T) {
	f := func(a [32]byte) bool {
		return IncrOf(Digest(a)).Digest() == Digest(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIncrCarryPropagation(t *testing.T) {
	// all-ones + 1 wraps to zero across every limb boundary
	var ones Digest
	for i := range ones {
		ones[i] = 0xFF
	}
	var one Digest
	one[0] = 1
	sum := IncrOf(ones).Add(IncrOf(one))
	if !sum.IsZero() {
		t.Fatalf("2^256-1 + 1 != 0 (mod 2^256): %v", sum)
	}
	back := sum.Sub(IncrOf(one))
	if back.Digest() != ones {
		t.Fatal("0 - 1 != 2^256-1")
	}
}

func TestKeyStoreInitialSymmetry(t *testing.T) {
	a := NewKeyStore(0)
	b := NewKeyStore(1)
	a.InstallInitial(1)
	b.InstallInitial(0)
	// Key a uses to send to b must equal key b expects from a.
	out, _ := a.OutKey(1)
	in, _ := b.InKey(0)
	if string(out) != string(in) {
		t.Fatal("pairwise keys do not match (a->b)")
	}
	out2, _ := b.OutKey(0)
	in2, _ := a.InKey(1)
	if string(out2) != string(in2) {
		t.Fatal("pairwise keys do not match (b->a)")
	}
	if string(out) == string(out2) {
		t.Fatal("the two directions must use distinct keys")
	}
}

func TestAuthenticatorRoundTrip(t *testing.T) {
	const n = 4
	stores := make([]*KeyStore, n)
	for i := range stores {
		stores[i] = NewKeyStore(uint32(i))
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				stores[i].InstallInitial(uint32(j))
			}
		}
	}
	payload := []byte("pre-prepare body")
	auth := stores[0].MakeAuthenticator(n, payload)
	for j := 1; j < n; j++ {
		if !stores[j].CheckAuthenticator(0, payload, auth) {
			t.Fatalf("replica %d rejected valid authenticator", j)
		}
		if stores[j].CheckAuthenticator(0, []byte("tampered"), auth) {
			t.Fatalf("replica %d accepted authenticator for modified payload", j)
		}
		if stores[j].CheckAuthenticator(1, payload, auth) {
			t.Fatalf("replica %d accepted authenticator from wrong claimed sender", j)
		}
	}
}

func TestAuthenticatorFreshness(t *testing.T) {
	a := NewKeyStore(0) // sender
	b := NewKeyStore(1) // receiver
	a.InstallInitial(1)
	b.InstallInitial(0)

	payload := []byte("m")
	old := a.MakeAuthenticator(2, payload)
	if !b.CheckAuthenticator(0, payload, old) {
		t.Fatal("fresh authenticator rejected")
	}

	// Receiver refreshes the key it expects from 0 (epoch 1); sender learns it.
	k := b.RefreshIn(0, 1, 42)
	if b.CheckAuthenticator(0, payload, old) {
		t.Fatal("stale-epoch authenticator accepted after refresh")
	}
	a.SetOut(1, k, 1)
	fresh := a.MakeAuthenticator(2, payload)
	if !b.CheckAuthenticator(0, payload, fresh) {
		t.Fatal("refreshed authenticator rejected")
	}
}

func TestPointMAC(t *testing.T) {
	a := NewKeyStore(0)
	b := NewKeyStore(1)
	a.InstallInitial(1)
	b.InstallInitial(0)
	payload := []byte("reply body")
	m := a.ComputePointMAC(1, payload)
	if !b.CheckPointMAC(0, payload, m) {
		t.Fatal("point MAC rejected")
	}
	if b.CheckPointMAC(0, []byte("x"), m) {
		t.Fatal("point MAC accepted for wrong payload")
	}
}

func TestCheckAuthenticatorUnknownSender(t *testing.T) {
	b := NewKeyStore(1)
	a := Authenticator{MACs: make([]MAC, 4)}
	if b.CheckAuthenticator(7, []byte("m"), a) {
		t.Fatal("accepted authenticator from unknown sender")
	}
}

func TestCheckAuthenticatorShortVector(t *testing.T) {
	a := NewKeyStore(0)
	b := NewKeyStore(5)
	a.InstallInitial(5)
	b.InstallInitial(0)
	auth := a.MakeAuthenticator(3, []byte("m")) // too few entries for id 5
	if b.CheckAuthenticator(0, []byte("m"), auth) {
		t.Fatal("accepted authenticator lacking our entry")
	}
}

func BenchmarkDigest4K(b *testing.B) {
	buf := make([]byte, 4096)
	rand.New(rand.NewSource(1)).Read(buf)
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		_ = DigestOf(buf)
	}
}

func BenchmarkSign(b *testing.B) {
	kp := GenerateKeyPair([]byte("seed"))
	payload := make([]byte, 64)
	for i := 0; i < b.N; i++ {
		_ = kp.Sign(payload)
	}
}

func BenchmarkVerifySig(b *testing.B) {
	kp := GenerateKeyPair([]byte("seed"))
	payload := make([]byte, 64)
	sig := kp.Sign(payload)
	for i := 0; i < b.N; i++ {
		if !Verify(kp.Public, payload, sig) {
			b.Fatal("verify failed")
		}
	}
}
