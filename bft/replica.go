package bft

import (
	"fmt"
	"path/filepath"

	"repro/internal/pbft"
)

// Replica is one member of the replica group — §6.2's Byz_init_replica.
// Each replica owns its own instance of the service (built by the factory
// over a library-allocated Region), its own keys (derived by the
// deterministic offline setup), and its own protocol engine; replicas
// coordinate only through the Network.
type Replica struct {
	inner *pbft.Replica
}

// NewReplica constructs replica id (0 ≤ id < opts.Replicas) attached to
// net. The replica is inert until Start. Construction panics on invalid
// options or an unbindable network address — configuration faults, caught
// before the cluster serves traffic.
func NewReplica(id int, opts Options, svc ServiceFactory, net Network) *Replica {
	cfg := opts.engineConfig()
	if id < 0 || id >= cfg.N {
		panic("bft: replica id out of range")
	}
	cfg.ID = replicaID(id)
	if opts.Durable {
		// One log directory per replica: an existing log is replayed here,
		// so constructing over a crashed replica's directory IS the
		// restart path.
		cfg.WALDir = filepath.Join(opts.Dir, fmt.Sprintf("r%d", id))
	}
	return &Replica{inner: pbft.NewReplica(cfg, opts.offlineDirectory(cfg.N), net, svc)}
}

// Start launches the replica's event loop.
func (r *Replica) Start() { r.inner.Start() }

// Stop terminates the replica and detaches it from the network. With a
// write-ahead log configured, pending frames are flushed first — Stop is
// a clean shutdown.
func (r *Replica) Stop() { r.inner.Stop() }

// Kill crashes the replica: it stops sending and receiving immediately and
// un-fsynced log frames are abandoned, exactly as kill -9 would abandon
// them. Use it (instead of Stop) to test crash recovery; build a new
// replica with the same id and Options over the same Dir to restart.
func (r *Replica) Kill() { r.inner.Kill() }

// ID returns the replica's index in the group.
func (r *Replica) ID() int { return int(r.inner.ID()) }

// View returns the replica's current view number (the primary of view v is
// replica v mod n).
func (r *Replica) View() uint64 { return uint64(r.inner.View()) }

// LastExecuted returns the highest executed sequence number.
func (r *Replica) LastExecuted() uint64 { return uint64(r.inner.LastExecuted()) }

// LowWaterMark returns the sequence number of the last stable checkpoint.
func (r *Replica) LowWaterMark() uint64 { return uint64(r.inner.LowWaterMark()) }

// StateDigest returns the root digest of the replica's partition tree as
// of its last checkpoint: writes since that checkpoint are not reflected
// until the next one is taken. Correct replicas that have taken the same
// checkpoint agree on it.
func (r *Replica) StateDigest() Digest { return r.inner.StateDigest() }

// Metrics returns a snapshot of the replica's protocol and engine
// counters.
func (r *Replica) Metrics() Metrics { return r.inner.Metrics() }

// Recover triggers proactive recovery immediately (BFT-PR, Chapter 4),
// whether or not a watchdog period is configured.
func (r *Replica) Recover() { r.inner.Recover() }

// Recovering reports whether a proactive recovery is in progress.
func (r *Replica) Recovering() bool { return r.inner.Recovering() }

// CorruptStatePage flips bytes in one page of the replica's service state
// behind the library's back — a supported attack for demos and tests of
// the recovery state check (§5.3.3). Never call it on a production node.
func (r *Replica) CorruptStatePage(page int) { r.inner.CorruptStatePage(page) }
