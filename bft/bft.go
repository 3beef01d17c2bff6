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
// principals. A Cluster runs over its own SimNetwork and exposes typed fault
// injection (Partition, Isolate, Heal), and every replica exposes a
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

// Metrics is one replica's counter snapshot, returned by Replica.Metrics:
// protocol events (batches, view changes, checkpoints, state transfers,
// recoveries) and engine-stage health (inbox/outbox drops). It is a plain
// value — reading it never perturbs the replica — and it describes that
// replica only; a group's view is the snapshots of its replicas.
type Metrics = pbft.Metrics

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
	// SyncEvery forces an fsync per record, so every vote is durable
	// before it is sent, at a large throughput cost. It requires Durable.
	// Default off: records ride group commit, where the log goroutine
	// coalesces appends and fsyncs at most once per wal.DefaultSyncWait
	// (25ms). Checkpoint votes and view changes always carry a durability
	// barrier regardless.
	SyncEvery bool
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
	_, err := o.validated()
	return err
}

// engineConfig validates public Options and returns the engine's
// per-replica Config they lower to.
func (o Options) engineConfig() pbft.Config {
	cfg, err := o.validated()
	if err != nil {
		panic(err)
	}
	return cfg
}

// validated checks o and lowers it onto a pbft.Config with the engine's
// defaults applied: n, K, L, the timeouts and sizes are defaulted once, in
// pbft.Config.Validate, and the stage settings come from
// pbft.DefaultOptions.
func (o Options) validated() (pbft.Config, error) {
	if o.Replicas != 0 && o.Replicas < 4 {
		return pbft.Config{}, fmt.Errorf("bft: Replicas=%d; the protocol needs n ≥ 4 (n=3f+1, f ≥ 1)", o.Replicas)
	}
	cfg := pbft.Config{
		N:                  o.Replicas,
		Mode:               o.Mode,
		Opt:                pbft.DefaultOptions(),
		CheckpointInterval: message.Seq(o.CheckpointInterval),
		LogWindow:          message.Seq(o.LogWindow),
		ViewChangeTimeout:  o.ViewChangeTimeout,
		StateSize:          o.StateSize,
		WatchdogInterval:   o.ProactiveRecovery,
		WALSyncEvery:       o.SyncEvery,
		Behavior:           o.Behavior,
		Seed:               o.Seed,
	}
	if o.ProactiveRecovery > 0 {
		cfg.KeyRefreshInterval = o.ProactiveRecovery / 2
	}
	cfg.Validate()
	// An explicit L below a defaulted K would wedge the cluster (the window
	// could never contain a checkpoint, so it could never advance).
	if k := uint64(cfg.CheckpointInterval); o.LogWindow != 0 && o.LogWindow < k {
		return pbft.Config{}, fmt.Errorf("bft: LogWindow=%d < CheckpointInterval=%d; the water-mark window must cover at least one checkpoint interval", o.LogWindow, k)
	}
	// An ordered list, not a map: with several negative options the error
	// reported must not depend on map iteration order.
	for _, nv := range []struct {
		name string
		v    int
	}{
		{"StateSize", o.StateSize},
		{"MaxClients", o.MaxClients},
		{"MaxRetries", o.MaxRetries},
	} {
		if nv.v < 0 {
			return pbft.Config{}, fmt.Errorf("bft: %s must not be negative", nv.name)
		}
	}
	if o.RetryTimeout < 0 || o.ViewChangeTimeout < 0 || o.ProactiveRecovery < 0 {
		return pbft.Config{}, fmt.Errorf("bft: durations must not be negative")
	}
	if o.Durable && o.Dir == "" {
		return pbft.Config{}, fmt.Errorf("bft: Durable requires Dir (the write-ahead log needs a directory)")
	}
	if o.SyncEvery && !o.Durable {
		return pbft.Config{}, fmt.Errorf("bft: SyncEvery requires Durable (there is no log to sync)")
	}
	return cfg, nil
}

func (o Options) maxClients() int {
	if o.MaxClients == 0 {
		return 128
	}
	return o.MaxClients
}

// dirCache memoizes offline directories by (n, maxClients): the setup is
// deterministic and a Directory is safe to share (principals re-register
// only their own identical keys), so in-process clusters and pools don't
// re-derive n+maxClients keypairs per node.
var dirCache sync.Map // [2]int -> *pbft.Directory

// offlineDirectory derives the shared offline key setup for a group of n
// replicas (the validated Config's N); every node builds (or shares) an
// identical copy.
func (o Options) offlineDirectory(n int) *pbft.Directory {
	key := [2]int{n, o.maxClients()}
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
