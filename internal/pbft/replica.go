package pbft

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/crypto"
	"repro/internal/egress"
	"repro/internal/executor"
	"repro/internal/ingress"
	"repro/internal/message"
	"repro/internal/statemachine"
	"repro/internal/transport"
	"repro/internal/vlog"
	"repro/internal/wal"
)

// Metrics counts protocol events at one replica.
type Metrics struct {
	RequestsExecuted  uint64
	BatchesExecuted   uint64
	TentativeExecs    uint64
	Rollbacks         uint64
	ViewChanges       uint64 // view changes this replica initiated or joined
	NewViewsProcessed uint64
	CheckpointsTaken  uint64
	StableCheckpoints uint64
	StateTransfers    uint64
	PagesFetched      uint64
	// State-transfer observability (statefetch.go): LastTransferTime is the
	// wall clock of the last completed transfer that advanced execution
	// (re-targets extend the same transfer), TransferBytes counts page
	// bytes installed, FetchRetries counts per-item timeout rotations to a
	// new designated replier.
	LastTransferTime    time.Duration
	TransferBytes       uint64
	FetchRetries        uint64
	Recoveries          uint64
	RecoveriesCompleted uint64
	LastRecoveryTime    time.Duration
	MsgsDroppedBadAuth  uint64
	// InboxDrops counts verified messages lost to a full inbox (the
	// receive goroutine's non-blocking enqueue toward the event loop). It
	// is maintained atomically outside the event loop.
	InboxDrops uint64
	// OutboxDrops counts sends refused by the egress stage, which happens
	// only once the replica is stopping. A refused send is simply never
	// transmitted, like a datagram lost on the wire.
	OutboxDrops uint64
	// ExecQueueDepth and ExecStalls are always zero: execution runs on the
	// event loop, with no queue to sample or fill.
	ExecQueueDepth uint64
	ExecStalls     uint64
	// PagesCopied / PagesDigested surface the checkpoint manager's
	// copy-on-write and digesting counters (§5.3, Table 8.12);
	// CkptDigestTime is the cumulative wall time spent taking checkpoints.
	PagesCopied    uint64
	PagesDigested  uint64
	CkptDigestTime time.Duration
	// Batching observability (§5.1.4, normalcase.go): BatchesProposed /
	// RequestsProposed count pre-prepares this primary issued and the
	// requests they carried. BatchBytesTotal sums the op bytes proposed.
	// BatchWaitFires counts accumulate deadlines that expired and flushed a
	// partial batch. QueueDepth and BatchTarget sample the request queue
	// length and the adaptive fill target at snapshot time.
	BatchesProposed  uint64
	RequestsProposed uint64
	BatchBytesTotal  uint64
	BatchWaitFires   uint64
	QueueDepth       uint64
	BatchTarget      uint64
	// Durability observability (durability.go, internal/wal): WALAppends /
	// WALFsyncs / WALBytes count records enqueued, group commits issued, and
	// frame bytes written; their ratio is the fsync batching factor.
	// ReplayTime is the wall time the last restart spent rebuilding state
	// from the log before going live.
	WALAppends uint64
	WALFsyncs  uint64
	WALBytes   uint64
	ReplayTime time.Duration
}

// execRecord remembers what executed at a sequence number so new-view
// processing can decide whether re-execution or rollback is needed.
type execRecord struct {
	digest    crypto.Digest
	tentative bool
}

// queuedRO pairs a queued read-only request with the execution frontier at
// its arrival: §5.1.3 delays the reply until every request whose effects
// the client could already have observed has COMMITTED, so the answer can
// never run behind a tentative write that was rolled back by a view change
// and recommitted later.
type queuedRO struct {
	req *message.Request
	// mark is maxExec at arrival; the reply may go out only once
	// lastCommitted has caught up to it (possibly in a later view). Unlike
	// lastExec, maxExec does not move back when a view change rolls
	// tentative executions back, so a request that arrives after the
	// rollback still waits for writes a client may hold a certificate for.
	mark message.Seq
}

// Replica is one member of the replica group. Unless a field says
// otherwise, fields are owned by the event-loop goroutine; external access
// goes through control thunks. The shared carve-outs are immutable
// configuration, thread-safe crypto state, channels/atomics, and the
// ingress/egress stages, which are exactly what the transport's receive
// goroutine touches.
//
// bftlint:owner=eventloop
// bftlint:longlived
type Replica struct {
	cfg Config         // bftlint:owner=shared (immutable after NewReplica)
	id  message.NodeID // bftlint:owner=shared
	n   int            // bftlint:owner=shared
	f   int            // bftlint:owner=shared
	dir *Directory     // bftlint:owner=shared (internally locked)

	ks   *crypto.KeyStore // bftlint:owner=shared (copy-on-write snapshots)
	kp   crypto.KeyPair   // bftlint:owner=shared (immutable)
	auth verifier         // bftlint:owner=shared (reads ks/dir only)

	trans transport.Transport // bftlint:owner=shared (substrates are thread-safe)
	// pipe decodes and verifies each datagram on the transport's receive
	// goroutine; inbox carries the verdicts to the event loop.
	inbox      chan inbound      // bftlint:owner=shared
	pipe       *ingress.Pipeline // bftlint:owner=shared
	inboxDrops atomic.Uint64     // bftlint:owner=shared
	// out seals and transmits outbound messages on the event loop.
	out   *egress.Pipeline // bftlint:owner=shared
	ctrl  chan func()      // bftlint:owner=shared
	stopC chan struct{}    // bftlint:owner=shared
	wg    sync.WaitGroup   // bftlint:owner=shared

	// Protocol state.
	view   message.View
	active bool // has new-view for view (or view 0)
	seqno  message.Seq

	log           *vlog.Log
	lastExec      message.Seq // highest executed (tentative or final)
	lastCommitted message.Seq // highest seq with all <= it committed+executed
	maxExec       message.Seq // highest ever executed; rollbacks leave it
	execRecords   map[message.Seq]execRecord

	// Execution state. ex executes requests, builds replies and takes
	// checkpoints over the other four; the rare paths that rebuild
	// execution state (rollback, state transfer, WAL replay, recovery
	// state checking) use them directly.
	region     *statemachine.Region
	service    statemachine.Service
	ckpt       *checkpoint.Manager
	replyCache *executor.ReplyCache
	ex         *executor.Executor

	// Checkpoint protocol.
	ckptVotes    map[message.Seq]map[message.NodeID]crypto.Digest
	pendingCkpts map[message.Seq]crypto.Digest // taken tentatively, msg unsent

	// Request queue (FIFO, one entry per client — §5.5 fairness) and the
	// primary's batch-assembly state (normalcase.go): batchTarget is the
	// adaptive fill target (AIMD between 1 and batchRequests); batchDeadline
	// is the live accumulate deadline (zero = not armed) backed by
	// batchTimer, whose channel the event loop selects on.
	queue         requestQueue
	batchTarget   int
	batchDeadline time.Time
	batchTimer    *time.Timer
	roQueue       []queuedRO // read-only requests awaiting quiescence

	// Pre-prepares waiting for separately-transmitted request bodies.
	waitingPP map[message.Seq]*message.PrePrepare

	// Scratch the event loop reuses: the inbound votes it decodes
	// (decodeVote), its own outbound votes (ownPrepare, ownCommit), the
	// batch it proposes (takeBatch), and a batch's requests and executor
	// entries (batchRequests, execBatch).
	prepIn       message.Prepare
	commitIn     message.Commit
	prepOut      message.Prepare
	commitOut    message.Commit
	batchScratch []*message.Request
	reqScratch   []*message.Request
	entryScratch []executor.Entry

	// View change state (viewchange.go).
	vc vcState

	// State transfer (statefetch.go).
	fetch fetchState

	// Recovery (recovery.go).
	rec recoveryState

	// Timers (deadline-polled from the tick loop).
	vcTimerDeadline time.Time // zero = stopped
	// vcTimerCommitted is lastCommitted when the deadline was last (re)set:
	// tentative-only waiting restarts the timer on commit progress.
	vcTimerCommitted message.Seq
	vcTimeout        time.Duration
	statusDeadline   time.Time
	keyDeadline      time.Time
	watchdogDeadline time.Time

	// Durability (durability.go): wal is the async group-commit log writer
	// (nil when durability is off); muted suppresses every send path while
	// the replica replays its log at startup or is being killed. The writer
	// handle is set once in NewReplica; Append/Barrier are called from the
	// event loop only.
	wal          *wal.Writer // bftlint:owner=shared
	muted        atomic.Bool // bftlint:owner=shared
	walRotated   uint64      // writer bytes at the last segment rotation
	rekeyOnStart bool        // replayed from an existing log: re-announce in-keys (§4.3.1)
	keyRecs      keyRecords  // key-exchange records to re-log on rotation

	rng     *rand.Rand
	metrics Metrics
	stopped bool
}

// Network is the attachment point replicas and clients need: the simulated
// network and the UDP book both provide it. The definition lives in
// internal/transport so every substrate shares it.
type Network = transport.Network

// inbound is one decoded message plus its authentication verdict and the
// key generation the verdict was computed under, produced by the ingress
// stage on the transport's receive goroutine and consumed by the event loop.
// A prepare or commit travels as its datagram alone (m is nil): the event
// loop decodes it again into a target of its own, so the all-to-all votes
// reach their quorum without a heap object per message.
type inbound struct {
	m   message.Message
	raw []byte
	ok  bool
	gen uint64
}

// inboundOf builds the inbox element for one verdict of the ingress stage.
// The stage lends its prepare, commit and reply targets for the length of
// the sink call only, so a vote is carried by its datagram, which outlives
// the call. A reply reaches a replica only as an answer to its own §4.3.2
// recovery request, rarely, so it is copied: decoded again from its
// datagram into a message of its own, trailer included.
func inboundOf(m message.Message, ok bool, gen uint64) inbound {
	switch m.(type) {
	case *message.Prepare, *message.Commit:
		return inbound{raw: message.Wire(m), ok: ok, gen: gen}
	case *message.Reply:
		rep := new(message.Reply)
		_ = rep.Decode(message.Wire(m)) // the stage decoded these bytes already
		return inbound{m: rep, ok: ok, gen: gen}
	}
	return inbound{m: m, ok: ok, gen: gen}
}

// NewReplica constructs a replica. The service factory receives the region
// the library allocated so the service keeps all state inside it.
func NewReplica(cfg Config, dir *Directory, net Network,
	svc func(*statemachine.Region) statemachine.Service) *Replica {
	cfg.Validate()
	r := &Replica{
		cfg:          cfg,
		id:           cfg.ID,
		n:            cfg.N,
		f:            cfg.F(),
		dir:          dir,
		ks:           crypto.NewKeyStore(uint32(cfg.ID)),
		kp:           crypto.GenerateKeyPair(crypto.DeriveKey("replica-identity", uint64(cfg.ID))),
		ctrl:         make(chan func(), 64),
		stopC:        make(chan struct{}),
		view:         0,
		active:       true,
		log:          vlog.New(cfg.N, cfg.LogWindow),
		execRecords:  make(map[message.Seq]execRecord),
		replyCache:   executor.NewReplyCache(),
		ckptVotes:    make(map[message.Seq]map[message.NodeID]crypto.Digest),
		pendingCkpts: make(map[message.Seq]crypto.Digest),
		queue:        newRequestQueue(),
		batchTarget:  1,
		waitingPP:    make(map[message.Seq]*message.PrePrepare),
		rng:          rand.New(rand.NewPCG(uint64(cfg.Seed), uint64(cfg.ID))),
		vcTimeout:    cfg.ViewChangeTimeout,
	}
	r.batchTimer = time.NewTimer(time.Hour)
	r.batchTimer.Stop()
	r.region = statemachine.NewRegion(cfg.StateSize, cfg.PageSize)
	r.service = svc(r.region)
	r.ckpt = checkpoint.NewManager(r.region, treeFanout)

	dir.Register(r.id, r.kp.Public)
	for i := 0; i < cfg.N; i++ {
		if message.NodeID(i) != r.id {
			r.ks.InstallInitial(uint32(i))
		}
	}
	r.initViewChangeState()
	r.initFetchState()
	r.initRecoveryState()

	r.auth = verifier{mode: cfg.Mode, dir: dir, ks: r.ks}
	r.inbox = make(chan inbound, inboxCap)
	r.pipe = ingress.New(0, 0, ingress.VerifierFunc(r.auth.VerifyTagged),
		func(m message.Message, ok bool, gen uint64) {
			select {
			case r.inbox <- inboundOf(m, ok, gen):
			default: // inbox overflow models receive-buffer loss
				r.inboxDrops.Add(1)
			}
		})
	r.trans = net.Attach(r.id, func(p []byte) {
		if r.cfg.Behavior == Crashed {
			return // fail-stop: burn no cycles on decode or MACs
		}
		r.pipe.Submit(p)
	})
	r.out = egress.New(0, 0, &sealer{mode: cfg.Mode, n: cfg.N, ks: r.ks, kp: r.kp}, r.trans)
	r.ex = executor.New(executor.Config{
		Self:          r.id,
		DigestReplies: cfg.Opt.DigestReplies,
		SmallResult:   smallResultThreshold,
		Service:       r.service,
		Ckpt:          r.ckpt,
		Cache:         r.replyCache,
		Out:           (*replyOut)(r),
	})
	// Durability last: replay re-executes through the executor with the
	// send paths above muted.
	r.initWAL()
	return r
}

// Start launches the event loop.
func (r *Replica) Start() {
	r.wg.Add(1)
	now := time.Now()
	r.statusDeadline = now.Add(r.cfg.StatusInterval)
	if r.cfg.KeyRefreshInterval > 0 {
		r.keyDeadline = now.Add(r.cfg.KeyRefreshInterval)
	}
	if r.cfg.WatchdogInterval > 0 {
		// Stagger watchdogs so at most f replicas recover at once (§4.3.3).
		r.watchdogDeadline = now.Add(r.cfg.WatchdogInterval +
			time.Duration(r.id)*r.cfg.WatchdogInterval/time.Duration(r.n))
	}
	go r.run()
}

// Stop terminates the event loop and detaches from the network.
func (r *Replica) Stop() {
	select {
	case <-r.stopC:
		return // already stopped
	default:
	}
	close(r.stopC)
	r.wg.Wait()
	r.out.Close()
	if r.wal != nil {
		r.wal.Close() // clean shutdown flushes; only Kill abandons the tail
	}
	r.trans.Close()
	r.pipe.Close()
}

// ID returns the replica id.
func (r *Replica) ID() message.NodeID { return r.id }

// do runs fn inside the event loop and waits for it (test/inspection hook).
func (r *Replica) do(fn func()) {
	done := make(chan struct{})
	select {
	case r.ctrl <- func() { fn(); close(done) }:
	case <-r.stopC:
		return
	}
	select {
	case <-done:
	case <-r.stopC:
	}
}

// Metrics returns a snapshot of the replica's counters.
func (r *Replica) Metrics() Metrics {
	var m Metrics
	r.do(func() {
		m = r.metrics
		m.QueueDepth = uint64(r.queue.Len())
		m.BatchTarget = uint64(r.batchTarget)
		s := r.ex.Stats()
		m.PagesCopied = s.PagesCopied
		m.PagesDigested = s.PagesDigested
		m.CkptDigestTime = s.CkptTime
	})
	m.InboxDrops = r.inboxDrops.Load()
	m.OutboxDrops = r.out.Stats().Rejected
	if r.wal != nil {
		ws := r.wal.Stats()
		m.WALAppends = ws.Appends
		m.WALFsyncs = ws.Fsyncs
		m.WALBytes = ws.Bytes
	}
	return m
}

// View returns the replica's current view.
func (r *Replica) View() message.View {
	var v message.View
	r.do(func() { v = r.view })
	return v
}

// LastExecuted returns the highest executed sequence number.
func (r *Replica) LastExecuted() message.Seq {
	var s message.Seq
	r.do(func() { s = r.lastExec })
	return s
}

// LowWaterMark returns the last stable checkpoint sequence number.
func (r *Replica) LowWaterMark() message.Seq {
	var s message.Seq
	r.do(func() { s = r.log.Low() })
	return s
}

// StateDigest returns the partition tree's root digest as of the last
// checkpoint taken; later writes show only once the next one is taken.
func (r *Replica) StateDigest() crypto.Digest {
	var d crypto.Digest
	r.do(func() { d = r.ckpt.RootDigest() })
	return d
}

// InspectService calls fn with the replica's service instance on the event
// loop (read-only use in tests).
func (r *Replica) InspectService(fn func(statemachine.Service)) {
	r.do(func() { fn(r.service) })
}

// CorruptStatePage simulates an attacker flipping state bytes behind the
// library's back; the state-checking pass of recovery must find it.
func (r *Replica) CorruptStatePage(page int) {
	r.do(func() { r.ckpt.CorruptLivePage(page) })
}

const tickInterval = 2 * time.Millisecond

func (r *Replica) run() {
	defer r.wg.Done()
	if r.rekeyOnStart {
		// A restart loses every session key installed since boot (they are
		// deliberately volatile, §4.3.1), while peers that refreshed theirs
		// keep expecting them. Announce fresh in-keys so peers re-key toward
		// us; peers that rotated respond in kind (onNewKey) so we re-learn
		// theirs.
		r.rekeyOnStart = false
		r.refreshKeys()
	}
	ticker := time.NewTicker(tickInterval)
	defer ticker.Stop()
	for {
		select {
		case im := <-r.inbox:
			r.onInbound(im)
		case <-r.batchTimer.C:
			if r.cfg.Behavior == Crashed {
				continue
			}
			r.onBatchWait()
		case <-ticker.C:
			if r.cfg.Behavior == Crashed {
				continue
			}
			r.onTick(time.Now())
		case fn := <-r.ctrl:
			fn()
		case <-r.stopC:
			return
		}
	}
}

func (r *Replica) onTick(now time.Time) {
	if !r.vcTimerDeadline.IsZero() && now.After(r.vcTimerDeadline) {
		if !r.vc.pending && (r.fetch.active || r.fetch.candSeq != 0) {
			// A backup that holds a weak certificate for a checkpoint past
			// its own frontier, or is fetching one, knows a correct replica
			// executed beyond it: its requests wait on its own catch-up, not
			// on the primary. Suspecting the primary now would take it to
			// the next view alone, where it would stay; wait a full timeout
			// again instead. The new-view wait of a pending view change is
			// never deferred.
			r.vcTimerDeadline = now.Add(r.vcTimeout)
		} else {
			r.onViewChangeTimeout()
		}
	}
	if now.After(r.statusDeadline) {
		r.statusDeadline = now.Add(r.cfg.StatusInterval)
		r.sendStatus()
	}
	if !r.keyDeadline.IsZero() && now.After(r.keyDeadline) {
		r.keyDeadline = now.Add(r.cfg.KeyRefreshInterval)
		r.refreshKeys()
	}
	if !r.watchdogDeadline.IsZero() && now.After(r.watchdogDeadline) {
		r.watchdogDeadline = now.Add(r.cfg.WatchdogInterval)
		r.startRecovery()
	}
	r.fetchTick(now)
	r.recoveryTick(now)
}

// onInbound dispatches one verdict from the ingress stage. A verdict
// computed before a key refresh this loop has since performed may rest on a
// stolen pre-refresh key (§4.3.2), so it is re-verified against the current
// generation. Refreshes are rare, so the re-check almost never runs.
func (r *Replica) onInbound(im inbound) {
	m := im.m
	if m == nil {
		if m = r.decodeVote(im.raw); m == nil {
			return
		}
	}
	if im.ok && im.gen != r.ks.Generation() {
		im.ok = r.verify(m)
	}
	r.onVerified(m, im.ok)
}

// decodeVote decodes a prepare or commit datagram, which already decoded
// once on the receive goroutine, into the event loop's own target. The
// result is valid until the next vote is decoded; handlers copy what they
// keep.
func (r *Replica) decodeVote(raw []byte) message.Message {
	if r.prepIn.Decode(raw) == nil {
		return &r.prepIn
	}
	if r.commitIn.Decode(raw) == nil {
		return &r.commitIn
	}
	return nil
}

// onVerified dispatches one decoded message given its authentication
// verdict. It runs on the event loop, so all protocol state stays
// single-threaded.
func (r *Replica) onVerified(m message.Message, ok bool) {
	if !ok {
		// A relayed view-change may carry a stale authenticator (its sender
		// refreshed keys or the relay is second-hand); §3.2.4 still lets us
		// accept it when its digest is pinned by a new-view certificate.
		if vc, isVC := m.(*message.ViewChange); isVC {
			r.onUnauthenticatedViewChange(vc)
			return
		}
		r.metrics.MsgsDroppedBadAuth++
		return
	}
	switch m := m.(type) {
	case *message.Request:
		r.onRequest(m)
	case *message.Reply:
		r.onRecoveryReply(m)
	case *message.PrePrepare:
		r.onPrePrepare(m)
	case *message.Prepare:
		r.onPrepare(m)
	case *message.Commit:
		r.onCommit(m)
	case *message.Checkpoint:
		r.onCheckpoint(m)
	case *message.ViewChange:
		r.onViewChange(m)
	case *message.ViewChangeAck:
		r.onViewChangeAck(m)
	case *message.NewView:
		r.onNewView(m)
	case *message.StatusActive:
		r.onStatusActive(m)
	case *message.StatusPending:
		r.onStatusPending(m)
	case *message.Fetch:
		r.onFetch(m)
	case *message.MetaData:
		r.onMetaData(m)
	case *message.Data:
		r.onData(m)
	case *message.NewKey:
		r.onNewKey(m)
	case *message.QueryStable:
		r.onQueryStable(m)
	case *message.ReplyStable:
		r.onReplyStable(m)
	case *message.BatchFetch:
		r.onBatchFetch(m)
	case *message.BatchBody:
		r.onBatchBody(m)
	}
}

// primary returns the primary of view v.
func (r *Replica) primary(v message.View) message.NodeID { return r.dir.Primary(v) }

// isPrimary reports whether this replica is the primary of its current view.
func (r *Replica) isPrimary() bool { return r.primary(r.view) == r.id }

// replicaIDs returns all replica ids (multicast destination set).
func (r *Replica) replicaIDs() []message.NodeID { return r.dir.ReplicaIDs() }

// ---------------------------------------------------------------------------
// Authentication
// ---------------------------------------------------------------------------

// authSigned always signs (recovery requests) via the simulated secure
// co-processor, writing the trailer into m: the request is also processed
// locally and retransmitted from its stored encoding.
func (r *Replica) authSigned(m message.Message) {
	*m.AuthTrailer() = message.Auth{Kind: message.AuthSig, Sig: r.kp.Sign(m.Payload())}
}

// ensurePeerKeys lazily installs the administrator-distributed initial keys
// for a principal first seen now (clients appear dynamically).
func (r *Replica) ensurePeerKeys(peer message.NodeID) { ensurePeerKeys(r.ks, peer) }

// verifySig checks a signature trailer against the directory.
func (r *Replica) verifySig(m message.Message) bool { return r.auth.verifySig(m) }

// verify authenticates an inbound message according to mode and type. The
// logic lives in verifier, which the ingress stage also runs.
func (r *Replica) verify(m message.Message) bool { return r.auth.Verify(m) }

// ---------------------------------------------------------------------------
// Sending
// ---------------------------------------------------------------------------

// multicastReplicas authenticates and multicasts m to the whole group.
//
// bftlint:send
func (r *Replica) multicastReplicas(m message.Message) {
	if r.muted.Load() {
		return // WAL replay / kill: nothing may reach the network
	}
	r.behaviorMangle(m)
	r.out.Multicast(r.replicaIDs(), m, egress.Vector)
}

// sendTo authenticates point-to-point and sends m to dst.
//
// bftlint:send
func (r *Replica) sendTo(dst message.NodeID, m message.Message) {
	if r.muted.Load() {
		return
	}
	r.behaviorMangle(m)
	r.out.Send(dst, m, egress.Point)
}

// replyOut sends the executor's replies point-authenticated to their
// clients.
type replyOut Replica

// SendReply implements executor.Outbound.
func (o *replyOut) SendReply(rep *message.Reply) { (*Replica)(o).sendTo(rep.Client, rep) }

// sendRaw sends an already-authenticated message (retransmissions of stored
// messages keep their original authenticators so relays work).
//
// bftlint:send
func (r *Replica) sendRaw(dst message.NodeID, m message.Message) {
	if r.muted.Load() {
		return
	}
	r.out.SendRaw(dst, m.Marshal())
}

// resendOwn sends a message this replica authored to a single peer, sealed
// with a fresh group authenticator under the CURRENT keys (§5.2: stored
// authenticators go stale across key refreshes, so each replica only
// retransmits messages it originally sent, freshly authenticated). Stored
// objects never carry a trailer — sealing happens in the wire buffer — so
// retransmission always re-seals.
//
// bftlint:send
func (r *Replica) resendOwn(dst message.NodeID, m message.Message) {
	if r.muted.Load() {
		return
	}
	r.behaviorMangle(m)
	r.out.Send(dst, m, egress.Vector)
}

// multicastSigned signs m (via the simulated secure co-processor) and
// multicasts it to the whole group — new-key announcements (§4.3.1).
//
// bftlint:send
func (r *Replica) multicastSigned(m message.Message) {
	if r.muted.Load() {
		return
	}
	r.out.Multicast(r.replicaIDs(), m, egress.Sign)
}

// multicastRawBytes ships pre-encoded bytes to the whole group (recovery-
// request retransmission keeps the exact signed encoding, §4.3.2).
//
// bftlint:send
func (r *Replica) multicastRawBytes(raw []byte) {
	if r.muted.Load() {
		return
	}
	r.out.MulticastRaw(r.replicaIDs(), raw)
}

// behaviorMangle applies fault-injection personalities to outgoing traffic.
//
// bftlint:owner=shared (reads cfg, mutates only the message)
func (r *Replica) behaviorMangle(m message.Message) {
	switch r.cfg.Behavior {
	case CorruptDigest:
		switch mm := m.(type) {
		case *message.Prepare:
			mm.Digest[0] ^= 0xFF
		case *message.Commit:
			mm.Digest[0] ^= 0xFF
		}
	case WrongResult:
		if rep, ok := m.(*message.Reply); ok {
			if len(rep.Result) > 0 {
				// Flip a copy: Result aliases the reply cache's backing
				// array, which later retransmissions are built from.
				rep.Result = append([]byte(nil), rep.Result...)
				rep.Result[0] ^= 0xFF
			}
			rep.ResultDigest[0] ^= 0xFF
		}
	}
}
