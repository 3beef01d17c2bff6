package bft_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/bft"
	"repro/bft/kv"
)

func ctxb() context.Context { return context.Background() }

func TestPublicAPIDefaults(t *testing.T) {
	c := bft.NewCluster(bft.Options{}, kv.Factory)
	if c.Replicas() != 4 || c.FaultTolerance() != 1 {
		t.Fatalf("defaults: n=%d f=%d", c.Replicas(), c.FaultTolerance())
	}
	c.Start()
	defer c.Stop()
	if _, err := c.NewClient().Invoke(ctxb(), kv.Noop()); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls cond until it holds, failing the test after 15 s. Reads of
// replica-local state go through it: a reply certificate needs only a
// quorum, so any one replica may still be behind when Invoke returns.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPublicAPIRecovery corrupts a replica's state behind the library's
// back and recovers it proactively: the recovery's state check (§5.3.3)
// finds the damaged page and refetches it, so the replica's state digest
// matches the group's again.
func TestPublicAPIRecovery(t *testing.T) {
	cluster := bft.NewCluster(bft.Options{
		Replicas:           4,
		Seed:               3,
		CheckpointInterval: 4,
	}, kv.Factory)
	cluster.Start()
	defer cluster.Stop()
	client := cluster.NewClient()
	incr := func(want uint64) {
		t.Helper()
		res, err := client.Invoke(ctxb(), kv.Incr())
		if err != nil {
			t.Fatal(err)
		}
		if got := kv.DecodeU64(res); got != want {
			t.Fatalf("counter = %d, want %d", got, want)
		}
	}
	for i := uint64(1); i <= 6; i++ {
		incr(i)
	}

	r2 := cluster.Replica(2)
	r2.CorruptStatePage(0)
	cluster.Recover(2)
	waitFor(t, "recovery", func() bool { return !r2.Recovering() })
	if m := r2.Metrics(); m.Recoveries != 1 {
		t.Fatalf("Recoveries = %d, want 1", m.Recoveries)
	}
	// StateDigest covers the last checkpoint. Increment up to the next one,
	// at 8, which digests page 0 as it is now: a page left corrupt keeps
	// replica 2 from ever agreeing.
	incr(7)
	incr(8)
	awaitAgreement(t, cluster, client, 4)
}

// TestPublicAPIByzantineBehavior stands faulty replicas up through the
// supported Behavior surface and checks BOTH directions: the fault is
// masked (results stay correct) AND it visibly manifests (so the test
// fails if WithBehavior silently stops reaching the engine).
func TestPublicAPIByzantineBehavior(t *testing.T) {
	// A silent primary of view 0 plus a liar: the cluster must elect a new
	// primary (publicly observable in Metrics) and still answer correctly.
	cluster := bft.NewCluster(bft.Options{Replicas: 4, Seed: 4,
		ViewChangeTimeout: 150 * time.Millisecond, MaxRetries: 30}, kv.Factory,
		bft.WithBehavior(0, bft.SilentPrimary),
		bft.WithBehavior(3, bft.WrongResult))
	cluster.Start()
	defer cluster.Stop()
	client := cluster.NewClient()
	for i := 1; i <= 3; i++ {
		res, err := client.Invoke(ctxb(), kv.Incr())
		if err != nil {
			t.Fatal(err)
		}
		if got := kv.DecodeU64(res); got != uint64(i) {
			t.Fatalf("liar leaked into certificate: incr %d -> %d", i, got)
		}
	}
	// Proof the behaviors were injected: an honest view-0 primary would
	// never have been replaced.
	if m := cluster.Replica(1).Metrics(); m.ViewChanges == 0 {
		t.Fatal("behavior not injected: silent primary caused no view change")
	}
	if v := cluster.Replica(1).View(); v == 0 {
		t.Fatal("behavior not injected: still in view 0")
	}
}

// TestInvokeContextCancellation: an in-flight Invoke against an
// unreachable cluster returns promptly with ctx.Err(), and the client
// stays usable afterwards. Cancelling abandons the wait, not the operation,
// so the abandoned operation is one whose effect is distinguishable from
// the operations the test counts (a register write next to counter
// increments), and the deadline sits in the middle of a gap in the retry
// schedule (transmissions at 0, 50 and 150 ms) so that expiry never races
// a retransmission.
func TestInvokeContextCancellation(t *testing.T) {
	cluster := bft.NewCluster(bft.Options{Replicas: 4, Seed: 5,
		RetryTimeout: 50 * time.Millisecond, MaxRetries: 1000}, kv.Factory)
	cluster.Start()
	defer cluster.Stop()
	client := cluster.NewClient()

	if _, err := client.Invoke(ctxb(), kv.Incr()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cluster.Replicas(); i++ {
		cluster.Isolate(i)
	}

	ctx, cancel := context.WithTimeout(ctxb(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := client.Invoke(ctx, kv.SetReg(7, 99))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("cancellation took %v, not prompt", waited)
	}

	cluster.Heal()
	res, err := client.Invoke(ctxb(), kv.Incr())
	if err != nil {
		t.Fatalf("client unusable after cancellation: %v", err)
	}
	if got := kv.DecodeU64(res); got != 2 {
		t.Fatalf("counter after heal: %d", got)
	}
	// The abandoned write either never ran or ran whole; nothing else may
	// have touched the register.
	res, err = client.Invoke(ctxb(), kv.GetReg(7))
	if err != nil {
		t.Fatal(err)
	}
	if got := kv.DecodeU64(res); got != 0 && got != 99 {
		t.Fatalf("register 7 after an abandoned SetReg(7, 99): %d", got)
	}
}

// TestClientPoolConcurrency drives parallel load through a pool and checks
// every distinct principal carried traffic and the counter is exact.
func TestClientPoolConcurrency(t *testing.T) {
	cluster := bft.NewCluster(bft.Options{Replicas: 4, Seed: 6}, kv.Factory)
	cluster.Start()
	defer cluster.Stop()

	pool := cluster.NewClientPool(4)
	const ops = 24
	futures := make([]*bft.Future, ops)
	for i := range futures {
		futures[i] = pool.InvokeAsync(ctxb(), kv.Incr())
	}
	for i, f := range futures {
		if _, err := f.Wait(ctxb()); err != nil {
			t.Fatalf("async op %d: %v", i, err)
		}
	}
	res, err := cluster.NewClient().Invoke(ctxb(), kv.Get(), bft.ReadOnly)
	if err != nil {
		t.Fatal(err)
	}
	if got := kv.DecodeU64(res); got != ops {
		t.Fatalf("counter=%d want %d", got, ops)
	}
}

// TestPartitionTyped: the typed partition surface drops quorum, healing
// restores it.
func TestPartitionTyped(t *testing.T) {
	cluster := bft.NewCluster(bft.Options{Replicas: 4, Seed: 8,
		RetryTimeout: 50 * time.Millisecond}, kv.Factory)
	cluster.Start()
	defer cluster.Stop()
	client := cluster.NewClient()

	if _, err := client.Invoke(ctxb(), kv.Incr()); err != nil {
		t.Fatal(err)
	}
	// 2-2 split: no quorum anywhere, the op must stall until Heal.
	cluster.Partition([]int{0, 1}, []int{2, 3})
	ctx, cancel := context.WithTimeout(ctxb(), 300*time.Millisecond)
	_, err := client.Invoke(ctx, kv.Incr())
	cancel()
	if err == nil {
		t.Fatal("op completed across a quorum-less partition")
	}
	cluster.Heal()
	if _, err := client.Invoke(ctxb(), kv.Incr()); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}
