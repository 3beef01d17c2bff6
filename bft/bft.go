// Package bft is the public interface of the BFT library — the Go analogue
// of the C interface in §6.2 of Castro's thesis (Byz_init_replica,
// Byz_init_client, Byz_invoke, Byz_modify). It is a PER-NODE surface: each
// replica and each client is constructed independently against any network
// substrate, so one binary runs a whole cluster in simulation or a single
// node of a multi-process deployment over real UDP.
//
// Per-node construction (§6.2's Byz_init_replica / Byz_init_client):
//
//	net := bft.SimNetwork(bft.SimSeed(1))        // or bft.UDPNetwork(...)
//	r0 := bft.NewReplica(0, opts, svcFactory, net)
//	r0.Start()
//	defer r0.Stop()
//	...
//	client := bft.NewClient(0, opts, net)
//	res, err := client.Invoke(ctx, op)           // cancellable (Byz_invoke)
//	res, err = client.Invoke(ctx, op, bft.ReadOnly)
//
// Convenience all-in-one cluster (wraps the per-node API):
//
//	cluster := bft.NewCluster(bft.Options{Replicas: 4}, svcFactory)
//	cluster.Start()
//	defer cluster.Stop()
//	pool := cluster.NewClientPool(8)             // 8 distinct client principals
//	res, err := pool.Invoke(ctx, op)
//
// The engine admits one operation in flight per client principal (§2.3.2);
// ClientPool is how callers get concurrency — it fans invocations across k
// principals. Clusters built over SimNetwork expose typed fault injection
// (Partition, Isolate, Heal, SetLinkProfile) and every replica exposes a
// Metrics snapshot; there is no escape hatch into the engine.
//
// Services: the replicated application implements Service over a
// library-managed paged Region and must announce writes with Region.Modify
// (the thesis's Byz_modify) so checkpointing, state transfer, and proactive
// recovery work. Two complete services ship as public packages: bft/kv (a
// counter/KV demo service) and bft/fs (the BFS replicated file system of
// Chapter 6).
package bft

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/pbft"
	"repro/internal/statemachine"
)

// Service is the deterministic state machine the library replicates
// (Definition 2.4.1). See statemachine.Service for the contract.
type Service = statemachine.Service

// Region is the paged memory holding all service state.
type Region = statemachine.Region

// ServiceFactory builds one service instance bound to a replica's region.
type ServiceFactory = func(*Region) Service

// Mode selects the authentication flavor.
type Mode = pbft.Mode

// Authentication modes.
const (
	// BFT authenticates with MAC vectors (Chapter 3) — the fast, default
	// algorithm.
	BFT = pbft.ModeMAC
	// BFTPK signs every message (Chapter 2) — simpler, ~an order of
	// magnitude slower; kept for comparison.
	BFTPK = pbft.ModePK
)

// Metrics is the per-replica counter snapshot returned by Replica.Metrics:
// protocol events (batches, view changes, checkpoints, state transfers,
// recoveries) and engine-stage health (inbox/outbox drops, executor queue
// depth). It is a plain value — reading it never perturbs the replica.
type Metrics = pbft.Metrics

// SumMetrics folds any set of Metrics snapshots (replicas, groups, whole
// shards) into one rollup: event counters add, backlog gauges add,
// "last observed" durations and the adaptive batch target take the max,
// and BatchFillAvg is recomputed from the summed proposal tallies.
// Metrics.Merge is the in-place form.
func SumMetrics(snaps ...Metrics) Metrics { return pbft.SumMetrics(snaps...) }

// Digest is a SHA-256 state or message digest.
type Digest = crypto.Digest

// Behavior selects a fault-injection personality for a replica — the
// supported way to stand up misbehaving replicas in demos and tests.
type Behavior = pbft.Behavior

// Fault-injection behaviors.
const (
	// Correct follows the protocol (the zero value).
	Correct = pbft.Correct
	// Crashed ignores every message (fail-stop).
	Crashed = pbft.Crashed
	// SilentPrimary follows the protocol except that it never sends
	// pre-prepares while primary, forcing view changes.
	SilentPrimary = pbft.SilentPrimary
	// ConflictingPrimary assigns the same sequence number to different
	// batches for different backups (Byzantine primary; safety holds).
	ConflictingPrimary = pbft.ConflictingPrimary
	// CorruptDigest sends prepare/commit messages with corrupted digests.
	CorruptDigest = pbft.CorruptDigest
	// WrongResult executes correctly but corrupts every reply (masked by
	// client reply certificates).
	WrongResult = pbft.WrongResult
)

// Options configures replicas and clients. The zero value is a sensible
// 4-replica simulation setup; all defaults are documented per field.
type Options struct {
	// Replicas is the group size n; the cluster tolerates (n-1)/3 faults.
	// Default 4. Values in 1..3 are rejected (3f+1 needs at least 4).
	Replicas int
	// Mode is BFT or BFTPK. Default BFT.
	Mode Mode
	// StateSize is the service region size in bytes. Default 64 KiB.
	StateSize int
	// PageSize is the checkpoint page size. Default 4096.
	PageSize int
	// CheckpointInterval is the checkpoint period K. Default 128.
	CheckpointInterval uint64
	// LogWindow is L, the water-mark window width bounding how far the
	// protocol runs ahead of the last stable checkpoint. Default
	// 2×CheckpointInterval; must be at least CheckpointInterval.
	LogWindow uint64
	// ViewChangeTimeout is the initial primary-failure timeout; it doubles
	// for consecutive view changes. Default 250ms.
	ViewChangeTimeout time.Duration
	// ProactiveRecovery enables BFT-PR with the given watchdog period
	// (Chapter 4); zero disables it.
	ProactiveRecovery time.Duration
	// DisableOptimizations turns off every Chapter 5 protocol optimization
	// (digest replies, tentative execution, read-only, batching, separate
	// request transmission); useful for measurement. The engine's executor
	// stage is NOT an optimization and keeps its default — it is how the
	// replica runs, not what the paper ablates.
	DisableOptimizations bool
	// Batching knobs (§5.1.4; see README "Batching & pipelining"). The
	// primary drains its request queue into batches capped three ways:
	// BatchRequests bounds requests per batch (default 16), BatchBytes
	// bounds total operation bytes per batch (default 64 KiB; one request
	// larger than the cap still proposes, alone), and BatchWait is the
	// accumulate micro-deadline (default 1ms; negative disables it) — with
	// agreement already in flight, a sub-target batch is held open this
	// long so later arrivals can share the sequence number. The deadline
	// never delays a request when nothing is in flight, so latency at low
	// load is unchanged.
	BatchRequests int
	BatchBytes    int
	BatchWait     time.Duration
	// AgreementWindow is W, the number of batches allowed between the
	// execution frontier and the newest pre-prepare (§5.1.4 pipelining).
	// Default 8; must not exceed the effective LogWindow.
	AgreementWindow int
	// DisableBatching turns off §5.1.4 batching alone (one request per
	// pre-prepare), leaving the other optimizations on — the ablation's
	// serial baseline. FixedBatching keeps batching on but disables the
	// adaptive fill target, so every batch tries to fill to BatchRequests
	// (the thesis's fixed-cap behavior).
	DisableBatching bool
	FixedBatching   bool
	// FetchWindow bounds parallel state-transfer partition fetches in
	// flight (§6.2.2). Default 8; 1 reproduces the serial fetch engine.
	FetchWindow int
	// InboxCap bounds each replica's receive queue; overflow models
	// receive-buffer loss (counted in Metrics.InboxDrops). Default 8192.
	InboxCap int
	// MaxClients is the number of client principals pre-registered by the
	// deterministic offline key setup: client ids (NewClient's first
	// argument) 0..MaxClients-1 are usable with this cluster. Default 128.
	MaxClients int
	// RetryTimeout is the client's base retransmission timeout (backs off
	// exponentially, §5.2). Default 150ms. MaxRetries bounds
	// retransmissions before Invoke fails. Default 10.
	RetryTimeout time.Duration
	MaxRetries   int
	// Durable enables the write-ahead log (README "Durability & crash
	// recovery"): every agreement vote, request, checkpoint certificate,
	// and view transition is logged under Dir before it can matter to the
	// group, and NewReplica over a non-empty Dir replays the log — the
	// replica restarts after a crash (even kill -9) with its state,
	// reply cache, and view intact, then catches up the lost tail from
	// the group. Dir must name a directory private to this process; each
	// replica uses its own subdirectory r<id>, so one Dir serves a whole
	// in-process cluster.
	Durable bool
	Dir     string
	// SyncEvery forces an fsync per record — every vote is durable before
	// it is sent, closing even the async window below at a large
	// throughput cost. Default off: records ride group commit, where the
	// log goroutine coalesces appends and fsyncs once per batch. SyncWait
	// is the coalescing window (default 1ms; negative syncs whatever has
	// accumulated without waiting). Checkpoint votes and view changes
	// always carry a durability barrier regardless of these knobs.
	SyncEvery bool
	SyncWait  time.Duration
	// Behavior injects a fault personality into a replica built with
	// NewReplica. (For clusters, use WithBehavior.)
	Behavior Behavior
	// Seed makes runs reproducible (simulation link model, replica PRNGs).
	Seed int64
}

// Validate checks the options for contradictions. The constructors call it
// and panic on error (configuration is a construction-time fault, like a
// bad address); call it directly to get the error instead.
func (o Options) Validate() error {
	if o.Replicas != 0 && o.Replicas < 4 {
		return fmt.Errorf("bft: Replicas=%d; the protocol needs n ≥ 4 (n=3f+1, f ≥ 1)", o.Replicas)
	}
	// Compare LogWindow against the EFFECTIVE checkpoint interval: an
	// explicit L below a defaulted K=128 would wedge the cluster (the
	// window could never contain a checkpoint, so it could never advance).
	k := o.CheckpointInterval
	if k == 0 {
		k = 128
	}
	if o.LogWindow != 0 && o.LogWindow < k {
		return fmt.Errorf("bft: LogWindow=%d < CheckpointInterval=%d; the water-mark window must cover at least one checkpoint interval", o.LogWindow, k)
	}
	// The agreement window is measured in batches but bounded by the
	// water-mark window in sequence numbers: pre-prepares beyond L are
	// refused, so W > L could never be honored.
	l := o.LogWindow
	if l == 0 {
		l = 2 * k
	}
	if o.AgreementWindow > 0 && uint64(o.AgreementWindow) > l {
		return fmt.Errorf("bft: AgreementWindow=%d > LogWindow=%d; the agreement window cannot exceed the water-mark window", o.AgreementWindow, l)
	}
	// An ordered list, not a map: with several negative options the error
	// reported must not depend on map iteration order.
	for _, nv := range []struct {
		name string
		v    int
	}{
		{"StateSize", o.StateSize},
		{"PageSize", o.PageSize},
		{"BatchRequests", o.BatchRequests},
		{"BatchBytes", o.BatchBytes},
		{"AgreementWindow", o.AgreementWindow},
		{"FetchWindow", o.FetchWindow},
		{"InboxCap", o.InboxCap},
		{"MaxClients", o.MaxClients},
		{"MaxRetries", o.MaxRetries},
	} {
		if nv.v < 0 {
			return fmt.Errorf("bft: %s must not be negative", nv.name)
		}
	}
	// BatchWait may be negative — that disables the accumulate deadline.
	// SyncWait may be negative too — that syncs without waiting.
	if o.RetryTimeout < 0 || o.ViewChangeTimeout < 0 || o.ProactiveRecovery < 0 {
		return fmt.Errorf("bft: durations must not be negative")
	}
	if o.Durable && o.Dir == "" {
		return fmt.Errorf("bft: Durable requires Dir (the write-ahead log needs a directory)")
	}
	return nil
}

// replicas returns the effective group size.
func (o Options) replicas() int {
	if o.Replicas == 0 {
		return 4
	}
	return o.Replicas
}

func (o Options) maxClients() int {
	if o.MaxClients == 0 {
		return 128
	}
	return o.MaxClients
}

// engineConfig lowers public Options onto the engine's per-replica Config.
// Engine stage defaults always come from pbft.DefaultOptions;
// DisableOptimizations strips only the Chapter 5 protocol optimizations.
func (o Options) engineConfig() pbft.Config {
	if err := o.Validate(); err != nil {
		panic(err)
	}
	opt := pbft.DefaultOptions()
	if o.DisableOptimizations {
		opt = opt.WithoutOptimizations()
	}
	if o.BatchRequests > 0 {
		opt.BatchRequests = o.BatchRequests
	}
	if o.BatchBytes > 0 {
		opt.BatchBytes = o.BatchBytes
	}
	if o.BatchWait != 0 {
		opt.BatchWait = o.BatchWait
	}
	if o.AgreementWindow > 0 {
		opt.AgreementWindow = o.AgreementWindow
	}
	if o.DisableBatching {
		opt.Batching = false
	}
	if o.FixedBatching {
		opt.AdaptiveBatch = false
	}
	if o.FetchWindow > 0 {
		opt.FetchWindow = o.FetchWindow
	}
	cfg := pbft.Config{
		N:                  o.replicas(),
		Mode:               o.Mode,
		Opt:                opt,
		CheckpointInterval: message.Seq(o.CheckpointInterval),
		LogWindow:          message.Seq(o.LogWindow),
		ViewChangeTimeout:  o.ViewChangeTimeout,
		StateSize:          o.StateSize,
		PageSize:           o.PageSize,
		WatchdogInterval:   o.ProactiveRecovery,
		InboxCap:           o.InboxCap,
		Behavior:           o.Behavior,
		Seed:               o.Seed,
	}
	if o.ProactiveRecovery > 0 {
		cfg.KeyRefreshInterval = o.ProactiveRecovery / 2
	}
	if o.Durable {
		// The per-replica subdirectory is appended where the id is known
		// (NewReplica); the sync policy lowers directly.
		cfg.WALSyncEvery = o.SyncEvery
		cfg.WALSyncWait = o.SyncWait
	}
	return cfg
}

// dirCache memoizes offline directories by (n, maxClients): the setup is
// deterministic and a Directory is safe to share (principals re-register
// only their own identical keys), so in-process clusters and pools don't
// re-derive n+maxClients keypairs per node.
var dirCache sync.Map // [2]int -> *pbft.Directory

// offlineDirectory derives the shared offline key setup for this
// configuration; every node builds (or shares) an identical copy.
func (o Options) offlineDirectory() *pbft.Directory {
	key := [2]int{o.replicas(), o.maxClients()}
	if d, ok := dirCache.Load(key); ok {
		return d.(*pbft.Directory)
	}
	d, _ := dirCache.LoadOrStore(key, pbft.OfflineDirectory(key[0], key[1]))
	return d.(*pbft.Directory)
}

// NewRegion allocates a paged region for standalone service testing.
func NewRegion(size, pageSize int) *Region {
	return statemachine.NewRegion(size, pageSize)
}
