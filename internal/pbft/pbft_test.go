package pbft

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/kvservice"
	"repro/internal/message"
	"repro/internal/simnet"
	"repro/internal/statemachine"
)

// testConfig returns a small, fast configuration for integration tests.
func testConfig() Config {
	return Config{
		Mode:               ModeMAC,
		Opt:                DefaultOptions(),
		CheckpointInterval: 16,
		LogWindow:          32,
		ViewChangeTimeout:  150 * time.Millisecond,
		StatusInterval:     30 * time.Millisecond,
		StateSize:          kvservice.MinStateSize,
		PageSize:           1024,
		Seed:               42,
	}
}

func newTestCluster(t testing.TB, n int, cfg Config, behaviors map[message.NodeID]Behavior) *Cluster {
	t.Helper()
	c := NewLocalCluster(n, cfg, kvservice.Factory, behaviors)
	c.Start()
	t.Cleanup(c.Stop)
	return c
}

func mustInvoke(t testing.TB, cl *Client, op []byte, ro bool) []byte {
	t.Helper()
	res, err := cl.Invoke(op, ro)
	if err != nil {
		t.Fatalf("invoke failed: %v", err)
	}
	return res
}

func TestBasicInvoke(t *testing.T) {
	c := newTestCluster(t, 4, testConfig(), nil)
	cl := c.NewClient()
	for i := 1; i <= 5; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
}

func TestReadOnlyInvoke(t *testing.T) {
	c := newTestCluster(t, 4, testConfig(), nil)
	cl := c.NewClient()
	mustInvoke(t, cl, kvservice.Incr(), false)
	mustInvoke(t, cl, kvservice.Incr(), false)
	res := mustInvoke(t, cl, kvservice.Get(), true)
	if got := kvservice.DecodeU64(res); got != 2 {
		t.Fatalf("read-only get returned %d, want 2", got)
	}
}

func TestMultipleClients(t *testing.T) {
	c := newTestCluster(t, 4, testConfig(), nil)
	const nClients = 5
	const each = 10
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		cl := c.NewClient()
		go func() {
			for j := 0; j < each; j++ {
				if _, err := cl.Invoke(kvservice.Incr(), false); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < nClients; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("client failed: %v", err)
		}
	}
	cl := c.NewClient()
	res := mustInvoke(t, cl, kvservice.Get(), true)
	if got := kvservice.DecodeU64(res); got != nClients*each {
		t.Fatalf("counter = %d, want %d", got, nClients*each)
	}
}

func TestLargeArgsAndResults(t *testing.T) {
	cfg := testConfig()
	cfg.StateSize = kvservice.MinStateSize + 64*1024
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()

	blob := bytes.Repeat([]byte{0xAB}, 4096) // 4/0 operation
	mustInvoke(t, cl, kvservice.WriteBlob(blob), false)

	res := mustInvoke(t, cl, kvservice.ReadBlob(4096), true) // 0/4 operation
	if len(res) != 4096 {
		t.Fatalf("read %d bytes, want 4096", len(res))
	}
	if !bytes.Equal(res, blob) {
		t.Fatal("blob round trip corrupted data")
	}
}

func TestCrashedBackupTolerated(t *testing.T) {
	// f=1: one crashed backup must not affect liveness or results.
	c := newTestCluster(t, 4, testConfig(), map[message.NodeID]Behavior{3: Crashed})
	cl := c.NewClient()
	for i := 1; i <= 10; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
}

func TestWrongResultReplicaMasked(t *testing.T) {
	// A replica lying in its replies must be outvoted by the certificate.
	c := newTestCluster(t, 4, testConfig(), map[message.NodeID]Behavior{2: WrongResult})
	cl := c.NewClient()
	for i := 1; i <= 5; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d (bad replica leaked through)", i, got)
		}
	}
}

func TestCorruptDigestReplicaTolerated(t *testing.T) {
	c := newTestCluster(t, 4, testConfig(), map[message.NodeID]Behavior{1: CorruptDigest})
	cl := c.NewClient()
	for i := 1; i <= 5; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
}

func TestViewChangeOnSilentPrimary(t *testing.T) {
	// Replica 0 (primary of view 0) never orders requests: the backups must
	// elect replica 1 and still serve the client.
	c := newTestCluster(t, 4, testConfig(), map[message.NodeID]Behavior{0: SilentPrimary})
	cl := c.NewClient()
	cl.MaxRetries = 20
	res := mustInvoke(t, cl, kvservice.Incr(), false)
	if got := kvservice.DecodeU64(res); got != 1 {
		t.Fatalf("incr returned %d", got)
	}
	// The system must have moved past view 0.
	c.waitFrontier(t, []int{1, 2, 3}, 5*time.Second, "replica 1 to leave view 0", func() bool {
		return c.Replica(1).View() > 0
	})
	// And keep working afterwards.
	for i := 2; i <= 6; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("post-view-change incr %d returned %d", i, got)
		}
	}
}

func TestCrashedPrimaryViewChange(t *testing.T) {
	c := newTestCluster(t, 4, testConfig(), map[message.NodeID]Behavior{0: Crashed})
	cl := c.NewClient()
	cl.MaxRetries = 20
	for i := 1; i <= 5; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
}

func TestConflictingPrimarySafety(t *testing.T) {
	// A Byzantine primary equivocating on batches must never make correct
	// replicas diverge; progress resumes (possibly via view change).
	c := newTestCluster(t, 4, testConfig(), map[message.NodeID]Behavior{0: ConflictingPrimary})
	cl := c.NewClient()
	cl.MaxRetries = 20
	for i := 1; i <= 5; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
	// All correct replicas must agree on the counter value. Compare the
	// counters through the service: digests also cover the reply caches,
	// which legitimately differ between repliers.
	c.waitFrontier(t, []int{1, 2, 3}, 5*time.Second, "correct replicas to agree on the counter", func() bool {
		v := counterAt(c, 1)
		return counterAt(c, 2) == v && counterAt(c, 3) == v
	})
}

// waitFrontier polls until every replica in ids has executed exactly as far
// as the furthest of them and cond, when non-nil, holds; it fails the test
// after timeout, naming what it waited for. A reply certificate proves only
// that a quorum executed a request, so a read of replica-local state taken
// right after one must first wait here for the others to reach the same
// frontier. With no ids it waits for cond alone.
func (c *Cluster) waitFrontier(t testing.TB, ids []int, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		executed := make([]message.Seq, len(ids))
		level := true
		for i, id := range ids {
			executed[i] = c.Replica(id).LastExecuted()
			level = level && executed[i] == executed[0]
		}
		if level && (cond == nil || cond()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (last executed: %v)", what, executed)
		}
		time.Sleep(15 * time.Millisecond)
	}
}

func TestCheckpointGarbageCollection(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 8
	cfg.Opt.Batching = false // one request per sequence number
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	for i := 0; i < 20; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	// Low water marks must have advanced past 0 everywhere.
	c.waitFrontier(t, nil, 5*time.Second, "every low water mark to advance", func() bool {
		for _, r := range c.Replicas {
			if r.LowWaterMark() == 0 {
				return false
			}
		}
		return true
	})
}

func TestStateDigestsConverge(t *testing.T) {
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.Opt.Batching = false
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	for i := 0; i < 12; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	// After quiescence every replica must reach the same state root.
	c.waitFrontier(t, []int{0, 1, 2, 3}, 5*time.Second, "state digests to converge", func() bool {
		d0 := c.Replica(0).StateDigest()
		for i := 1; i < 4; i++ {
			if c.Replica(i).StateDigest() != d0 {
				return false
			}
		}
		return true
	})
}

func TestPKModeBasic(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = ModePK
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	for i := 1; i <= 3; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
}

func TestSevenReplicas(t *testing.T) {
	c := newTestCluster(t, 7, testConfig(), map[message.NodeID]Behavior{5: Crashed, 6: Crashed})
	cl := c.NewClient()
	for i := 1; i <= 5; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
}

func TestExactlyOnceUnderRetransmission(t *testing.T) {
	// Force client retransmissions with a lossy network; increments must
	// not be applied twice.
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)

	// Drop a third of everything by the network's seeded PRNG. (A
	// counter that drops every third datagram locks into phase with the
	// n−1 multicast fan-out, so the same retransmissions drop every time.)
	c.Net.SetDefaults(simnet.LinkConfig{LossRate: 1.0 / 3})
	cl := c.NewClient()
	cl.RetryTimeout = 60 * time.Millisecond
	// Budget retries from the timeout rather than a fixed count: under -race
	// with CPU contention a 30%-lossy run legitimately burns many rounds,
	// and a fixed 30 made this test flake. Size MaxRetries so the cumulative
	// backoff (doubling, capped at 8×RetryTimeout — the client's schedule)
	// spans ~30 seconds of wall clock per op.
	cl.MaxRetries = retriesForBudget(cl.RetryTimeout, 30*time.Second)
	const n = 8
	for i := 1; i <= n; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d (duplicate or lost execution)", i, got)
		}
	}
	c.Net.SetDefaults(simnet.LinkConfig{})
	res := mustInvoke(t, cl, kvservice.Get(), true)
	if got := kvservice.DecodeU64(res); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
}

// retriesForBudget returns the retry count whose cumulative exponential
// backoff (doubling from base, capped at 8×base — the client's §5.2
// schedule) first covers budget.
func retriesForBudget(base, budget time.Duration) int {
	wait, total, n := base, time.Duration(0), 0
	for total < budget {
		total += wait
		n++
		if wait < 8*base {
			wait *= 2
			if wait > 8*base {
				wait = 8 * base
			}
		}
	}
	return n
}

func TestNonDeterminismAgreement(t *testing.T) {
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.TimestampFactory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	res := mustInvoke(t, cl, kvservice.GetTime(), false)
	ts := int64(kvservice.DecodeU64(res))
	now := time.Now().UnixNano()
	diff := now - ts
	if diff < 0 {
		diff = -diff
	}
	if time.Duration(diff) > 30*time.Second {
		t.Fatalf("agreed timestamp too far from real time: %v", time.Duration(diff))
	}
}

func TestOrderLogConsistentUnderConcurrency(t *testing.T) {
	// Multiple clients appending concurrently: all replicas must hold the
	// same order log (total order of execution).
	c := newTestCluster(t, 4, testConfig(), nil)
	const nClients = 4
	const each = 5
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		cl := c.NewClient()
		go func() {
			for j := 0; j < each; j++ {
				if _, err := cl.Invoke(kvservice.AppendLog(), false); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < nClients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	cl := c.NewClient()
	logRes := mustInvoke(t, cl, kvservice.ReadLog(), true)
	if len(logRes) != nClients*each*8 {
		t.Fatalf("order log has %d bytes, want %d", len(logRes), nClients*each*8)
	}
	// Every replica's log must match the certified one, once the replicas
	// outside the read's quorum have caught up with it.
	c.waitFrontier(t, []int{0, 1, 2, 3}, 5*time.Second, "replicas to reach the certified frontier", nil)
	for i := 0; i < 4; i++ {
		var local []byte
		c.Replica(i).InspectService(func(s statemachine.Service) {
			local = s.Execute(message.ClientIDBase+9999, kvservice.ReadLog(), nil)
		})
		if !bytes.Equal(local, logRes) {
			t.Fatalf("replica %d order log diverges", i)
		}
	}
}

func TestMetricsProgress(t *testing.T) {
	c := newTestCluster(t, 4, testConfig(), nil)
	cl := c.NewClient()
	for i := 0; i < 5; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	c.waitFrontier(t, []int{0, 1, 2, 3}, 5*time.Second, "replicas to reach the frontier", nil)
	m := c.Replica(0).Metrics()
	if m.RequestsExecuted < 5 {
		t.Fatalf("primary executed %d requests, want >= 5", m.RequestsExecuted)
	}
	if m.BatchesExecuted == 0 {
		t.Fatal("no batches executed")
	}
}

func TestManySequentialRequests(t *testing.T) {
	if testing.Short() {
		t.Skip("long test")
	}
	cfg := testConfig()
	cfg.CheckpointInterval = 8
	cfg.LogWindow = 16
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	const n = 100
	for i := 1; i <= n; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
}

func TestTentativeExecDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.Opt.TentativeExec = false
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	for i := 1; i <= 5; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
	c.waitFrontier(t, []int{0, 1, 2, 3}, 5*time.Second, "replicas to reach the frontier", nil)
	if m := c.Replica(0).Metrics(); m.TentativeExecs != 0 {
		t.Fatalf("tentative execs %d with optimization disabled", m.TentativeExecs)
	}
}

func TestAllOptimizationsDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.Opt = Options{}
	c := newTestCluster(t, 4, cfg, nil)
	cl := c.NewClient()
	for i := 1; i <= 5; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d", i, got)
		}
	}
}

func TestClientTimeoutWhenClusterDown(t *testing.T) {
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, map[message.NodeID]Behavior{
		0: Crashed, 1: Crashed, 2: Crashed, 3: Crashed,
	})
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.RetryTimeout = 20 * time.Millisecond
	cl.MaxRetries = 2
	if _, err := cl.Invoke(kvservice.Incr(), false); err == nil {
		t.Fatal("invoke succeeded against a dead cluster")
	}
}

func TestLatencyReasonable(t *testing.T) {
	// Sanity guard for the harness: a local 0/0 op should complete fast.
	c := newTestCluster(t, 4, testConfig(), nil)
	cl := c.NewClient()
	mustInvoke(t, cl, kvservice.Noop(), false) // warm up
	start := time.Now()
	const n = 20
	for i := 0; i < n; i++ {
		mustInvoke(t, cl, kvservice.Noop(), false)
	}
	avg := time.Since(start) / n
	if avg > 50*time.Millisecond {
		t.Fatalf("average latency %v is implausibly high", avg)
	}
}

func TestViewChangePreservesExecutedRequests(t *testing.T) {
	// Execute some requests, kill the primary, execute more: the counter
	// must continue from where it was (committed state survives the view
	// change).
	cfg := testConfig()
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.MaxRetries = 20
	for i := 1; i <= 5; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	c.Net.Isolate(0) // primary of view 0 disappears
	for i := 6; i <= 10; i++ {
		res := mustInvoke(t, cl, kvservice.Incr(), false)
		if got := kvservice.DecodeU64(res); got != uint64(i) {
			t.Fatalf("incr %d returned %d after primary failure", i, got)
		}
	}
}

func TestRejoinAfterPartition(t *testing.T) {
	// A backup partitioned away must catch up via retransmission/state
	// transfer once healed.
	cfg := testConfig()
	cfg.CheckpointInterval = 4
	cfg.LogWindow = 8
	c := NewLocalCluster(4, cfg, kvservice.Factory, nil)
	c.Start()
	t.Cleanup(c.Stop)
	cl := c.NewClient()
	cl.MaxRetries = 20

	c.Net.Isolate(3)
	for i := 1; i <= 20; i++ {
		mustInvoke(t, cl, kvservice.Incr(), false)
	}
	c.Net.Heal()

	// Replica 3 must converge to the same counter value.
	c.waitFrontier(t, nil, 8*time.Second, "replica 3 to reach counter 20 after heal", func() bool {
		return counterAt(c, 3) == 20
	})
}

func TestBatchingUnderLoad(t *testing.T) {
	cfg := testConfig()
	c := newTestCluster(t, 4, cfg, nil)
	const nClients = 8
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		cl := c.NewClient()
		go func() {
			for j := 0; j < 5; j++ {
				if _, err := cl.Invoke(kvservice.Incr(), false); err != nil {
					errs <- fmt.Errorf("invoke: %w", err)
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < nClients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	c.waitFrontier(t, []int{0, 1, 2, 3}, 5*time.Second, "replicas to reach the frontier", nil)
	m := c.Replica(0).Metrics()
	if m.BatchesExecuted == 0 || m.RequestsExecuted < nClients*5 {
		t.Fatalf("metrics: %+v", m)
	}
	// With batching on, batches should be fewer than requests under load.
	if m.BatchesExecuted > m.RequestsExecuted {
		t.Fatalf("more batches (%d) than requests (%d)?", m.BatchesExecuted, m.RequestsExecuted)
	}
}
