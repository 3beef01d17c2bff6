package bft_test

import (
	"testing"
	"time"

	"repro/bft"
	"repro/bft/kv"
)

// TestPublicAPIDurableRestart exercises the public crash-recovery path:
// a durable cluster loses one replica to Kill (un-fsynced log frames
// abandoned), the survivors keep serving, and Restart rebuilds the victim
// from its on-disk log, after which the whole group converges.
func TestPublicAPIDurableRestart(t *testing.T) {
	cluster := bft.NewCluster(bft.Options{
		Replicas:           4,
		Seed:               11,
		CheckpointInterval: 4,
		Durable:            true,
		Dir:                t.TempDir(),
		MaxRetries:         20,
	}, kv.Factory)
	cluster.Start()
	defer cluster.Stop()
	client := cluster.NewClient()

	const ops = 10
	for i := 1; i <= ops; i++ {
		res, err := client.Invoke(ctxb(), kv.Incr())
		if err != nil {
			t.Fatal(err)
		}
		if got := kv.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d -> %d", i, got)
		}
	}

	cluster.Kill(1)
	// Liveness with the victim down.
	if _, err := client.Invoke(ctxb(), kv.Incr()); err != nil {
		t.Fatal(err)
	}

	r := cluster.Restart(1)
	waitFor(t, "the restarted replica to catch up", func() bool { return r.LastExecuted() >= ops+1 })

	res, err := client.Invoke(ctxb(), kv.Get(), bft.ReadOnly)
	if err != nil || kv.DecodeU64(res) != ops+1 {
		t.Fatalf("get after restart: %v %d", err, kv.DecodeU64(res))
	}
	if m := r.Metrics(); m.WALAppends == 0 {
		t.Fatalf("restarted replica is not logging")
	}
}

// TestRestartAfterProactiveRecovery pins the interaction between the WAL
// and BFT-PR key refreshment (§4.3.1): a proactive recovery anywhere in the
// group rotates session keys cluster-wide, and that exchange — counters,
// announced in-keys, installed out-keys — must survive a later kill -9 of
// any OTHER replica, or the restarted replica comes back deaf (peers'
// rotated out-keys fail against its re-derived initial in-keys) and mute
// (its announcements reuse a co-processor counter peers suppress as
// replay). Regression test for exactly that wedge.
func TestRestartAfterProactiveRecovery(t *testing.T) {
	cluster := bft.NewCluster(bft.Options{
		Replicas:           4,
		Mode:               bft.BFT,
		Seed:               7,
		CheckpointInterval: 8,
		LogWindow:          16,
		ViewChangeTimeout:  300 * time.Millisecond,
		StateSize:          kv.MinStateSize,
		MaxRetries:         30,
		Durable:            true,
		Dir:                t.TempDir(),
	}, kv.Factory)
	cluster.Start()
	defer cluster.Stop()
	client := cluster.NewClient()

	incr := func(label string) {
		t.Helper()
		if _, err := client.Invoke(ctxb(), kv.Incr()); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	for i := 0; i < 12; i++ {
		incr("warmup")
	}

	// Proactively recover replica 2: every replica refreshes keys (peers
	// rotate the keys they chose for the recovering one, §4.3.2).
	cluster.Recover(2)
	waitFor(t, "recovery", func() bool { return !cluster.Replica(2).Recovering() })
	incr("post-recovery")

	// Kill -9 a DIFFERENT replica and restart it: its keystore state at
	// the crash includes rotated session keys it must recover from its log.
	cluster.Kill(0)
	for i := 0; i < 4; i++ {
		incr("victim down")
	}
	r := cluster.Restart(0)
	waitFor(t, "the restarted replica to catch up", func() bool {
		return r.LastExecuted() >= cluster.Replica(1).LastExecuted()
	})
	incr("post-restart")
}

// TestPublicAPISyncEvery runs a durable cluster with per-record fsync:
// every log record is synced on its own, a killed replica restarts from its
// log, and it converges on the group's state.
func TestPublicAPISyncEvery(t *testing.T) {
	const k = 4
	cluster := bft.NewCluster(bft.Options{
		Seed:               13,
		CheckpointInterval: k,
		Durable:            true,
		Dir:                t.TempDir(),
		SyncEvery:          true,
		MaxRetries:         20,
	}, kv.Factory)
	cluster.Start()
	defer cluster.Stop()
	client := cluster.NewClient()
	incr := func(label string) {
		t.Helper()
		if _, err := client.Invoke(ctxb(), kv.Incr()); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
	}
	for i := 0; i < 6; i++ {
		incr("before kill")
	}
	cluster.Kill(1)
	for i := 0; i < 3; i++ {
		incr("victim down")
	}
	r := cluster.Restart(1)
	if r.Metrics().ReplayTime <= 0 {
		t.Fatal("restart did not replay a log")
	}
	awaitAgreement(t, cluster, client, k)

	// Per-record sync: once the log goroutine has drained, a replica has
	// issued at least one fsync per record (group commit issues far fewer).
	deadline := time.Now().Add(5 * time.Second)
	for m := cluster.Replica(0).Metrics(); m.WALFsyncs < m.WALAppends; m = cluster.Replica(0).Metrics() {
		if time.Now().After(deadline) {
			t.Fatalf("SyncEvery not in effect: %d fsyncs for %d records", m.WALFsyncs, m.WALAppends)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitAgreement quiesces the cluster: it waits until every replica reports
// an equal StateDigest at an equal LastExecuted. A replica that rejoined
// behind closes the gap by fetching a stable checkpoint, so while the group
// disagrees off a checkpoint boundary it walks the group forward with
// ordered reads, which change no state.
func awaitAgreement(t *testing.T, cluster *bft.Cluster, client *bft.Client, k uint64) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		frontier := cluster.Replica(0).LastExecuted()
		digest := cluster.Replica(0).StateDigest()
		agree := true
		for i := 1; i < cluster.Replicas(); i++ {
			r := cluster.Replica(i)
			le := r.LastExecuted()
			if le != frontier || r.StateDigest() != digest {
				agree = false
			}
			frontier = max(frontier, le)
		}
		// Re-read: a digest taken while a batch executed belongs to
		// neither side of it.
		if agree && cluster.Replica(0).LastExecuted() == frontier {
			return
		}
		if time.Now().After(deadline) {
			for i := 0; i < cluster.Replicas(); i++ {
				r := cluster.Replica(i)
				t.Logf("replica %d at %d: %v", i, r.LastExecuted(), r.StateDigest())
			}
			t.Fatal("replicas disagree after quiescence")
		}
		if frontier%k == 0 {
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if _, err := client.Invoke(ctxb(), kv.Get()); err != nil {
			t.Fatalf("quiescence read: %v", err)
		}
	}
}

func TestDurableOptionValidation(t *testing.T) {
	if err := (bft.Options{Durable: true}).Validate(); err == nil {
		t.Fatal("Durable without Dir must be rejected")
	}
	if err := (bft.Options{Durable: true, Dir: t.TempDir()}).Validate(); err != nil {
		t.Fatal(err)
	}
}
