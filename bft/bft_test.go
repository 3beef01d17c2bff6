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

func TestPublicAPIQuickstart(t *testing.T) {
	cluster := bft.NewCluster(bft.Options{Replicas: 4, Seed: 1}, kv.Factory)
	cluster.Start()
	defer cluster.Stop()

	client := cluster.NewClient()
	for i := 1; i <= 3; i++ {
		res, err := client.Invoke(ctxb(), kv.Incr())
		if err != nil {
			t.Fatal(err)
		}
		if got := kv.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d -> %d", i, got)
		}
	}
	res, err := client.Invoke(ctxb(), kv.Get(), bft.ReadOnly)
	if err != nil || kv.DecodeU64(res) != 3 {
		t.Fatalf("get: %v %d", err, kv.DecodeU64(res))
	}
}

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

func TestPublicAPIFaultInjection(t *testing.T) {
	cluster := bft.NewCluster(bft.Options{Replicas: 4, Seed: 2,
		ViewChangeTimeout: 150 * time.Millisecond, MaxRetries: 20}, kv.Factory)
	cluster.Start()
	defer cluster.Stop()
	client := cluster.NewClient()

	if _, err := client.Invoke(ctxb(), kv.Incr()); err != nil {
		t.Fatal(err)
	}
	if err := cluster.Isolate(0); err != nil { // kill the primary
		t.Fatal(err)
	}
	res, err := client.Invoke(ctxb(), kv.Incr())
	if err != nil {
		t.Fatal(err)
	}
	if kv.DecodeU64(res) != 2 {
		t.Fatalf("got %d", kv.DecodeU64(res))
	}
}

func TestPublicAPIRecovery(t *testing.T) {
	cluster := bft.NewCluster(bft.Options{
		Replicas:           4,
		Seed:               3,
		CheckpointInterval: 4,
	}, kv.Factory)
	cluster.Start()
	defer cluster.Stop()
	client := cluster.NewClient()
	for i := 0; i < 6; i++ {
		if _, err := client.Invoke(ctxb(), kv.Incr()); err != nil {
			t.Fatal(err)
		}
	}
	cluster.Recover(2)
	deadline := time.Now().Add(10 * time.Second)
	for cluster.Replica(2).Recovering() {
		if time.Now().After(deadline) {
			t.Fatal("recovery stuck")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if _, err := client.Invoke(ctxb(), kv.Incr()); err != nil {
		t.Fatal(err)
	}
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
		if err := cluster.Isolate(i); err != nil {
			t.Fatal(err)
		}
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

	if err := cluster.Heal(); err != nil {
		t.Fatal(err)
	}
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
// restores it; over a real network the methods refuse.
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
	if err := cluster.Partition([]int{0, 1}, []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(ctxb(), 300*time.Millisecond)
	_, err := client.Invoke(ctx, kv.Incr())
	cancel()
	if err == nil {
		t.Fatal("op completed across a quorum-less partition")
	}
	if err := cluster.Heal(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Invoke(ctxb(), kv.Incr()); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}
