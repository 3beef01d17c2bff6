// Package pbft implements the BFT state-machine replication protocol family
// of Castro & Liskov: BFT-PK (Chapter 2, public-key signatures), BFT
// (Chapter 3, MAC authenticators with the PSet/QSet view change), and BFT-PR
// (Chapter 4, proactive recovery), together with the implementation
// techniques of Chapter 5 — digest replies, tentative execution, read-only
// operations, request batching, separate request transmission, status-based
// retransmission, hierarchical checkpointing and state transfer, and
// non-determinism agreement.
//
// One replica is one goroutine: the event loop owns all protocol and
// execution state and consumes authenticated messages and timer ticks from
// channels, mirroring the I/O-automaton structure of the thesis's
// implementation (§6.1). A datagram is decoded and authenticated on the
// transport's receive goroutine before it reaches the loop
// (internal/ingress); a batch is executed, its replies built and its
// checkpoint digested on the loop itself (internal/executor); an outbound
// message is sealed and transmitted on the loop (internal/egress). None of
// the three stages has a queue or goroutine of its own.
package pbft

import (
	"crypto/ed25519"
	"sync"
	"time"

	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/quorum"
	"repro/internal/wal"
)

// Mode selects the authentication flavor of the protocol.
type Mode int

// Protocol modes.
const (
	// ModeMAC is BFT (Chapter 3): authenticators everywhere, signatures only
	// for new-key and recovery messages.
	ModeMAC Mode = iota
	// ModePK is BFT-PK (Chapter 2): every message carries a signature.
	ModePK
)

func (m Mode) String() string {
	if m == ModePK {
		return "BFT-PK"
	}
	return "BFT"
}

// Options toggles the Chapter 5 optimizations independently (the thesis
// ablates each one in §8.3.3) and sets the engine's batching, agreement
// and fetch windows.
type Options struct {
	// DigestReplies: only the designated replier returns the full result
	// (§5.1.1).
	DigestReplies bool
	// TentativeExec: execute once prepared, overlap commit with reply
	// (§5.1.2).
	TentativeExec bool
	// ReadOnly: clients may multicast read-only requests answered in a
	// single round trip (§5.1.3).
	ReadOnly bool
	// Batching: assign one sequence number to a batch of requests under
	// load (§5.1.4).
	Batching bool
	// BatchRequests bounds requests per batch (the thesis implementation's
	// 16-digest limit). It is the hard count cap; the adaptive policy picks
	// an effective fill target at or below it.
	BatchRequests int
	// BatchBytes bounds the total operation bytes one batch may carry. A
	// single request larger than the cap still proposes — alone. Zero means
	// the default of 64 KiB.
	BatchBytes int
	// BatchWait is the accumulate micro-deadline: with agreement already in
	// flight, the primary holds a sub-target batch open for up to this long
	// so later arrivals can ride the same sequence number. The timer arms
	// only when the queue is non-empty, the agreement window has room, AND
	// at least one batch is in flight — with nothing in flight a request
	// proposes immediately, so latency at low load is unchanged. Zero means
	// the default of 1ms; negative disables the timer (sub-target batches
	// then propose immediately, the pre-adaptive behavior).
	BatchWait time.Duration
	// AdaptiveBatch auto-tunes the effective batch fill target from
	// observed queue depth: the target tracks ceil(queued / free window
	// slots) — drain the backlog into the agreement room actually left —
	// with additive increase and multiplicative decrease, clamped to
	// [1, BatchRequests]. Light load gets per-request latency, a saturated
	// window gets amortized agreement, with no operator tuning. Off:
	// batches always try to fill to BatchRequests.
	AdaptiveBatch bool
	// AgreementWindow bounds protocol instances running in parallel — the
	// number of batches between the execution frontier and the newest
	// pre-prepare (the sliding-window W of §5.1.4). Must not exceed the
	// water-mark window L.
	AgreementWindow int
	// SeparateRequests: requests larger than InlineThreshold travel
	// directly from client to all replicas and only their digests ride in
	// pre-prepares (§5.1.5); backups never relay them to the primary.
	SeparateRequests bool
	// InlineThreshold is the size cutoff for inlining (thesis: 255 bytes).
	InlineThreshold int
	// FetchWindow bounds the number of state-transfer partition fetches in
	// flight at once (§6.2.2 fetches partitions "in parallel from all
	// replicas"): in-flight items are striped across distinct repliers
	// round-robin and their replies matched out of order, so a lagging
	// replica's catch-up overlaps round trips instead of paying one per
	// partition. 1 reproduces the serial engine (the ablation baseline);
	// 0 means the default of 8.
	FetchWindow int
}

// DefaultOptions enables everything, like the thesis's BFT configuration.
func DefaultOptions() Options {
	return Options{
		DigestReplies:    true,
		TentativeExec:    true,
		ReadOnly:         true,
		Batching:         true,
		BatchRequests:    16,
		BatchBytes:       64 << 10,
		BatchWait:        time.Millisecond,
		AdaptiveBatch:    true,
		AgreementWindow:  8,
		SeparateRequests: true,
		InlineThreshold:  255,
		FetchWindow:      8,
	}
}

// withDefaults returns o with every zero engine number replaced by its
// DefaultOptions value.
func (o Options) withDefaults() Options {
	def := DefaultOptions()
	if o.BatchRequests == 0 {
		o.BatchRequests = def.BatchRequests
	}
	if o.BatchBytes == 0 {
		o.BatchBytes = def.BatchBytes
	}
	if o.BatchWait == 0 {
		o.BatchWait = def.BatchWait
	}
	if o.AgreementWindow == 0 {
		o.AgreementWindow = def.AgreementWindow
	}
	if o.InlineThreshold == 0 {
		o.InlineThreshold = def.InlineThreshold
	}
	if o.FetchWindow == 0 {
		o.FetchWindow = def.FetchWindow
	}
	return o
}

// separate reports whether a request whose operation is opLen bytes long
// is transmitted separately (§5.1.5): the client multicasts it to every
// replica on each transmission, and pre-prepares carry only its digest.
// The client, the primary and the backups all decide with this one test.
func (o Options) separate(opLen int) bool {
	return o.SeparateRequests && opLen > o.InlineThreshold
}

// Behavior selects a fault-injection personality for a replica.
type Behavior int

// Fault-injection behaviors.
const (
	// Correct follows the protocol.
	Correct Behavior = iota
	// Crashed ignores every message (fail-stop).
	Crashed
	// SilentPrimary follows the protocol except that it never sends
	// pre-prepares while primary, forcing view changes.
	SilentPrimary
	// ConflictingPrimary sends pre-prepares that assign the same sequence
	// number to different batches for different backups (a Byzantine
	// primary; safety must still hold).
	ConflictingPrimary
	// CorruptDigest sends prepare/commit messages with corrupted digests.
	CorruptDigest
	// WrongResult executes correctly but replies to clients with corrupted
	// results (clients must mask it with their reply certificates).
	WrongResult
)

// Config parameterizes one replica.
type Config struct {
	// ID is this replica's identity, 0..N-1.
	ID message.NodeID
	// N is the group size; the protocol tolerates f = (N-1)/3 faults.
	N int
	// Mode selects BFT or BFT-PK authentication.
	Mode Mode
	// Opt toggles the Chapter 5 optimizations.
	Opt Options

	// CheckpointInterval is K: checkpoints are taken when a batch with
	// sequence number divisible by K executes (§2.3.4).
	CheckpointInterval message.Seq
	// LogWindow is L, the width of the water-mark window (thesis: 2K).
	LogWindow message.Seq

	// ViewChangeTimeout is the initial timeout before a backup suspects the
	// primary; it doubles for consecutive view changes (§2.3.5).
	ViewChangeTimeout time.Duration
	// StatusInterval is the period of status multicasts (§5.2).
	StatusInterval time.Duration

	// StateSize and PageSize shape the service memory region; Fanout shapes
	// the partition tree (§5.3.1).
	StateSize int
	PageSize  int
	Fanout    int

	// Proactive recovery (Chapter 4). Recovery runs when the watchdog
	// fires (WatchdogInterval > 0) or when Replica.Recover is called.
	KeyRefreshInterval time.Duration
	WatchdogInterval   time.Duration

	// InboxCap bounds the replica's receive queue: the verified messages
	// waiting between the transport's receive goroutine and the event loop.
	// Overflow models receive-buffer loss and is counted in
	// Metrics.InboxDrops. Default 8192. (Clients have no such queue: a
	// reply is folded into its certificate on the receive goroutine.)
	InboxCap int

	// Durability (durability.go, internal/wal). WALDir, when set, makes the
	// replica log protocol records to a write-ahead log in that directory
	// (one directory per replica) and recover from it on construction.
	// WALBackend overrides the file backend with a caller-supplied storage
	// seam (tests use wal.MemBackend); it must not be shared between
	// replicas. WALSyncEvery forces a write+fsync per record instead of the
	// async group commit, whose minimum interval between fsyncs is
	// wal.DefaultSyncWait. WALRotateBytes is the
	// segment size at which a stable checkpoint saves a full snapshot and
	// rotates the log (zero means 256 KiB; checkpoints below the threshold
	// log only a truncation record, which replay honors by sliding its
	// window).
	WALDir         string
	WALBackend     wal.Backend
	WALSyncEvery   bool
	WALRotateBytes int64

	// Behavior injects a fault personality.
	Behavior Behavior

	// Seed drives the replica's private PRNG.
	Seed int64
}

// Validate applies defaults and sanity checks.
func (c *Config) Validate() {
	if c.N < 4 {
		c.N = 4
	}
	if c.CheckpointInterval == 0 {
		c.CheckpointInterval = 128
	}
	if c.LogWindow == 0 {
		c.LogWindow = 2 * c.CheckpointInterval
	}
	if c.ViewChangeTimeout == 0 {
		c.ViewChangeTimeout = 250 * time.Millisecond
	}
	if c.StatusInterval == 0 {
		c.StatusInterval = 50 * time.Millisecond
	}
	if c.StateSize == 0 {
		c.StateSize = 1 << 16
	}
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.Fanout == 0 {
		c.Fanout = 16
	}
	c.Opt = c.Opt.withDefaults()
	// The agreement window cannot usefully exceed the water-mark window:
	// pre-prepares beyond L are refused anyway, so clamp rather than wedge.
	if w := message.Seq(c.Opt.AgreementWindow); w > c.LogWindow {
		c.Opt.AgreementWindow = int(c.LogWindow)
	}
	if c.InboxCap == 0 {
		c.InboxCap = 8192
	}
}

// F returns the fault threshold (N-1)/3.
//
//bftlint:faultbound
func (c *Config) F() int { return quorum.F(c.N) }

// Directory is the public-key and identity registry shared by all
// principals — the role the read-only memory plays in §4.2. Clients appear
// dynamically while replicas (and the transport receive goroutines that
// verify for them) read it, so lookups take a read lock.
type Directory struct {
	n int
	// ids is ReplicaIDs(), built once: n never changes.
	ids  []message.NodeID
	mu   sync.RWMutex
	keys map[message.NodeID]ed25519.PublicKey
}

// NewDirectory creates a directory for n replicas.
func NewDirectory(n int) *Directory {
	ids := make([]message.NodeID, n)
	for i := range ids {
		ids[i] = message.NodeID(i)
	}
	return &Directory{n: n, ids: ids, keys: make(map[message.NodeID]ed25519.PublicKey)}
}

// OfflineDirectory builds a directory pre-populated with the deterministic
// identity keys of the offline trusted setup: the public keys of replicas
// 0..n-1 and of the first clients client principals (ClientIDBase upward).
// Every principal derives the same directory independently, so per-node
// construction works across processes with no runtime key exchange —
// exactly the paper's assumption that keys are distributed offline (§2.1,
// §4.2's read-only memory).
func OfflineDirectory(n, clients int) *Directory {
	dir := NewDirectory(n)
	for i := 0; i < n; i++ {
		kp := crypto.GenerateKeyPair(crypto.DeriveKey("replica-identity", uint64(i)))
		dir.Register(message.NodeID(i), kp.Public)
	}
	for c := 0; c < clients; c++ {
		id := message.ClientIDBase + message.NodeID(c)
		kp := crypto.GenerateKeyPair(crypto.DeriveKey("client-identity", uint64(id)))
		dir.Register(id, kp.Public)
	}
	return dir
}

// N returns the replica group size.
func (d *Directory) N() int { return d.n }

// ReplicaIDs returns the group's replica ids — every multicast's destination
// set. The slice is shared: callers (and the transports they hand it to)
// only read it.
func (d *Directory) ReplicaIDs() []message.NodeID { return d.ids }

// Register records a principal's public key.
func (d *Directory) Register(id message.NodeID, pub ed25519.PublicKey) {
	d.mu.Lock()
	d.keys[id] = pub
	d.mu.Unlock()
}

// PublicKey returns a principal's public key.
func (d *Directory) PublicKey(id message.NodeID) (ed25519.PublicKey, bool) {
	d.mu.RLock()
	k, ok := d.keys[id]
	d.mu.RUnlock()
	return k, ok
}

// Primary returns the primary of view v: p = v mod |R| (§2.3).
func (d *Directory) Primary(v message.View) message.NodeID {
	return message.NodeID(uint64(v) % uint64(d.n))
}
