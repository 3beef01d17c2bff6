package crypto

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestKeyStoreConcurrentVerifyDuringRefresh hammers the verification paths
// from many goroutines while key refreshes rotate session keys underneath,
// the interleaving a replica produces: receive goroutines verifying MACs
// against copy-on-write snapshots while the replica event loop runs the
// proactive-recovery key exchange (§4.3). Run under -race.
func TestKeyStoreConcurrentVerifyDuringRefresh(t *testing.T) {
	const (
		peers     = 4
		verifiers = 8
		rounds    = 2000
	)
	// a is the receiver under test; senders[p] plays peer p.
	a := NewKeyStore(0)
	senders := make([]*KeyStore, peers+1)
	for p := 1; p <= peers; p++ {
		a.InstallInitial(uint32(p))
		senders[p] = NewKeyStore(uint32(p))
		senders[p].InstallInitial(0)
	}
	payload := []byte("concurrent verification payload")

	var stop atomic.Bool
	var verified atomic.Uint64
	var wg sync.WaitGroup

	// Verification workers: check authenticators and point MACs computed
	// with whatever key generation the sender currently holds. A check may
	// legitimately fail while a refresh is mid-handshake (receiver rotated,
	// sender not yet told); it must never race, tear, or panic.
	for w := 0; w < verifiers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := uint32(w%peers + 1)
			for !stop.Load() {
				av := senders[p].MakeAuthenticator(1, payload)
				if a.CheckAuthenticator(p, payload, av) {
					verified.Add(1)
				}
				mac := senders[p].ComputePointMAC(0, payload)
				if a.CheckPointMAC(p, payload, mac) {
					verified.Add(1)
				}
				// Exercise the snapshot read API the hot path uses.
				a.InKey(p)
				a.OutKey(p)
				// Whatever generation this load observes, the entry's
				// precomputed states must be the ones derived from the key
				// next to them: a tag made from the states equals HMAC
				// under that key, never under a neighbouring generation's.
				k := a.snap.Load().in[p]
				h := getScratch()
				got := k.tag(h, payload)
				hashPool.Put(h)
				if want := referenceMAC(k.key, payload); got != want {
					t.Errorf("peer %d epoch %d: precomputed states give %x, key gives %x",
						p, k.epoch, got, want)
					return
				}
			}
		}(w)
	}

	// Refresher: the event-loop role. Rotate each peer's in-key the way
	// recovery does — derive, install, announce to the sender — plus
	// redundant InstallInitial calls (lazy installs must not roll epochs
	// back) and MakeAuthenticator calls (send path shares the snapshot).
	for epoch := uint32(1); epoch <= rounds; epoch++ {
		for p := uint32(1); p <= peers; p++ {
			k := a.RefreshIn(p, epoch, uint64(epoch))
			senders[p].SetOut(0, k, epoch)
			a.InstallInitial(p)
			a.MakeAuthenticator(peers+1, payload)
		}
	}
	stop.Store(true)
	wg.Wait()

	if verified.Load() == 0 {
		t.Fatal("no verification ever succeeded under concurrent refresh")
	}
	// After the dust settles, the final generation must verify cleanly.
	for p := uint32(1); p <= peers; p++ {
		mac := senders[p].ComputePointMAC(0, payload)
		if !a.CheckPointMAC(p, payload, mac) {
			t.Fatalf("final key generation for peer %d does not verify", p)
		}
		if _, epoch := a.InKey(p); epoch != rounds {
			t.Fatalf("peer %d epoch = %d, want %d", p, epoch, rounds)
		}
	}
}

// TestKeyStoreGeneration pins the contract the replica's stale-verdict
// re-check depends on: the generation changes on every real key mutation
// and stays put on redundant installs, so an unchanged generation proves a
// verdict was computed against current keys.
func TestKeyStoreGeneration(t *testing.T) {
	ks := NewKeyStore(0)
	g0 := ks.Generation()
	ks.InstallInitial(1)
	g1 := ks.Generation()
	if g1 == g0 {
		t.Fatal("first install did not advance the generation")
	}
	ks.InstallInitial(1) // redundant: no new generation
	if ks.Generation() != g1 {
		t.Fatal("redundant InstallInitial advanced the generation")
	}
	ks.RefreshIn(1, 1, 7)
	g2 := ks.Generation()
	if g2 == g1 {
		t.Fatal("RefreshIn did not advance the generation")
	}
	ks.SetOut(1, DeriveKey("x", 1), 1)
	if ks.Generation() == g2 {
		t.Fatal("SetOut did not advance the generation")
	}
}

// TestKeyStoreInstallInitialIdempotent verifies lazy installs cannot
// clobber refreshed keys (the ingress workers race InstallInitial against
// the event loop's RefreshIn).
func TestKeyStoreInstallInitialIdempotent(t *testing.T) {
	a := NewKeyStore(0)
	a.InstallInitial(1)
	k := a.RefreshIn(1, 3, 99)
	a.InstallInitial(1) // must be a no-op
	got, epoch := a.InKey(1)
	if epoch != 3 {
		t.Fatalf("epoch rolled back to %d after InstallInitial", epoch)
	}
	if string(got) != string(k) {
		t.Fatal("refreshed key clobbered by InstallInitial")
	}
}
