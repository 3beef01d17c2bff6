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

// Options toggles the five Chapter 5 optimizations that the thesis ablates
// one by one in §8.3.3. Everything else about the engine (batch caps, the
// agreement and fetch windows, the inline cutoff) is a constant below.
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
	// load (§5.1.4). The primary proposes while fewer than W batches are in
	// flight; once the window is full, requests queue, and the next batch
	// takes everything queued up to the caps below. Off, every batch holds
	// one request.
	Batching bool
	// SeparateRequests: requests larger than inlineThreshold travel
	// directly from client to all replicas and only their digests ride in
	// pre-prepares (§5.1.5); backups never relay them to the primary.
	SeparateRequests bool
}

// DefaultOptions enables everything, like the thesis's BFT configuration.
func DefaultOptions() Options {
	return Options{
		DigestReplies:    true,
		TentativeExec:    true,
		ReadOnly:         true,
		Batching:         true,
		SeparateRequests: true,
	}
}

// The engine's fixed numbers. The thesis's implementation fixes them too;
// §8.3.3 ablates the optimizations above, not these values.
const (
	// batchRequests bounds requests per batch (the thesis implementation's
	// 16-digest limit) when Options.Batching is on.
	batchRequests = 16
	// batchBytes bounds the total operation bytes one batch may carry. A
	// single request larger than the cap still proposes — alone.
	batchBytes = 64 << 10
	// agreementWindow bounds the batches between the execution frontier
	// and the newest pre-prepare (the sliding window W of §5.1.4). The
	// window in force is Config.window, which also stays within L. It is
	// the only thing that sizes batches: a smaller W leaves more requests
	// queued behind a full window, so each batch carries more of them.
	agreementWindow = 4
	// inlineThreshold is the request size above which separate request
	// transmission applies (thesis: 255 bytes).
	inlineThreshold = 255
	// fetchWindow bounds the state-transfer partition fetches in flight at
	// once (§6.2.2 fetches partitions "in parallel from all replicas"): they
	// are striped across distinct repliers and their replies matched out of
	// order, so catch-up overlaps round trips instead of paying one per
	// partition.
	fetchWindow = 8
	// treeFanout is the branching factor of the partition tree (§5.3.1).
	treeFanout = 16
	// inboxCap bounds the replica's receive queue: the verified messages
	// waiting between the transport's receive goroutine and the event loop.
	// Overflow models receive-buffer loss and is counted in
	// Metrics.InboxDrops. The channel's buffer is allocated whole at
	// construction, 4096 elements of 56 bytes; the deepest queue the
	// benchmark workloads reach is a few hundred. (Clients have no such
	// queue: a reply is folded into its certificate on the receive
	// goroutine.)
	inboxCap = 4096
)

// separate reports whether a request whose operation is opLen bytes long
// is transmitted separately (§5.1.5): the client multicasts it to every
// replica on each transmission, and pre-prepares carry only its digest.
// The client, the primary and the backups all decide with this one test.
func (o Options) separate(opLen int) bool {
	return o.SeparateRequests && opLen > inlineThreshold
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

	// StateSize and PageSize shape the service memory region, whose pages
	// are the leaves of the partition tree (§5.3.1).
	StateSize int
	PageSize  int

	// Proactive recovery (Chapter 4). Recovery runs when the watchdog
	// fires (WatchdogInterval > 0) or when Replica.Recover is called.
	KeyRefreshInterval time.Duration
	WatchdogInterval   time.Duration

	// Durability (durability.go, internal/wal). WALDir, when set, makes the
	// replica log protocol records to a write-ahead log in that directory
	// (one directory per replica) and recover from it on construction.
	// WALSyncEvery forces a write+fsync per record instead of the
	// async group commit, whose minimum interval between fsyncs is
	// wal.DefaultSyncWait. WALRotateBytes is the
	// segment size at which a stable checkpoint saves a full snapshot and
	// rotates the log (zero means 256 KiB; checkpoints below the threshold
	// log only a truncation record, which replay honors by sliding its
	// window).
	WALDir         string
	WALSyncEvery   bool
	WALRotateBytes int64

	// Behavior injects a fault personality.
	Behavior Behavior

	// Seed drives the replica's private PRNG.
	Seed int64
}

// Validate fills in the default of every zero field that has one.
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
}

// window returns the agreement window W in force: agreementWindow, clamped
// to the water-mark window L, beyond which pre-prepares are refused anyway.
func (c *Config) window() message.Seq {
	return min(agreementWindow, c.LogWindow)
}

// F returns the fault threshold (N-1)/3.
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
