package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/bft"
	"repro/internal/crypto"
	"repro/internal/message"
	"repro/internal/transport"
)

// The tap measures the engine from outside: a bft.Network decorator sees
// every datagram on its way into and out of the transport, a bft.Service
// decorator sees every Execute. Both only record; spans are assembled after
// the run (spans.go).

type evDir uint8

const (
	evTx evDir = iota
	evRx
)

// event is one protocol datagram crossing the transport boundary. For
// requests and replies (a, b) is (client, timestamp); for pre-prepares,
// prepares and commits it is (view, sequence number).
type event struct {
	t    int64 // ns since tap.base
	a, b uint64
	node int32 // the endpoint that sent (tx) or received (rx)
	from int32 // the sender the message names
	typ  message.Type
	dir  evDir
}

type reqKey struct {
	client message.NodeID
	ts     uint64
}

type slotKey struct{ view, seq uint64 }

// batchContent is what a pre-prepare carried: inline requests by key,
// separately transmitted ones by digest (resolved through tap.bigReqs).
type batchContent struct {
	inline  []reqKey
	digests []crypto.Digest
}

type execEvent struct {
	start, end int64
	client     message.NodeID
}

const (
	// maxEvents bounds the preallocated span buffer: about 25 events per
	// operation at 15k traced ops/s for 6 s. Pages never written stay
	// unmapped, so short runs do not pay for it.
	maxEvents = 3 << 20
	// The probes replay this many datagrams as received by replica 0.
	maxCaptured     = 12000
	maxCapturedByte = 64 << 20
)

type tap struct {
	inner bft.Network
	base  time.Time
	on    atomic.Bool // record only inside the measured interval

	ev      []event
	n       atomic.Int64
	dropped atomic.Int64

	txMsgs, txBytes, rxMsgs, reqSends atomic.Int64

	mu       sync.Mutex
	batches  map[slotKey]batchContent
	bigReqs  map[crypto.Digest]reqKey
	services []*tapService

	capMu     sync.Mutex
	captured  [][]byte
	capBytes  int
	reqSize   int // first client request datagram seen
	replySize int // first full reply datagram seen
}

func newTap(inner bft.Network, base time.Time) *tap {
	return &tap{
		inner:   inner,
		base:    base,
		ev:      make([]event, maxEvents),
		batches: make(map[slotKey]batchContent),
		bigReqs: make(map[crypto.Digest]reqKey),
	}
}

// Attach implements bft.Network. The Multicaster extension is passed
// through when the substrate has it, so the egress path is the one users
// run.
func (t *tap) Attach(id message.NodeID, h transport.Handler) transport.Transport {
	inner := t.inner.Attach(id, func(p []byte) {
		t.observe(evRx, id, p, 1)
		h(p)
	})
	tt := &tapTransport{tap: t, inner: inner}
	if mc, ok := inner.(transport.Multicaster); ok {
		return &tapMulticaster{tapTransport: tt, mc: mc}
	}
	return tt
}

type tapTransport struct {
	tap   *tap
	inner transport.Transport
}

func (t *tapTransport) Self() message.NodeID { return t.inner.Self() }
func (t *tapTransport) Close()               { t.inner.Close() }

func (t *tapTransport) Send(dst message.NodeID, payload []byte) {
	t.tap.observe(evTx, t.inner.Self(), payload, 1)
	t.inner.Send(dst, payload)
}

func (t *tapTransport) Multicast(dsts []message.NodeID, payload []byte) {
	t.tap.observe(evTx, t.inner.Self(), payload, fanout(dsts, t.inner.Self()))
	t.inner.Multicast(dsts, payload)
}

type tapMulticaster struct {
	*tapTransport
	mc transport.Multicaster
}

func (t *tapMulticaster) MulticastOwned(dsts []message.NodeID, payload []byte, release func([]byte)) {
	t.tap.observe(evTx, t.inner.Self(), payload, fanout(dsts, t.inner.Self()))
	t.mc.MulticastOwned(dsts, payload, release)
}

func (t *tapMulticaster) SendOwned(dst message.NodeID, payload []byte, release func([]byte)) {
	t.tap.observe(evTx, t.inner.Self(), payload, 1)
	t.mc.SendOwned(dst, payload, release)
}

// fanout counts the datagrams one multicast puts on the wire (substrates
// skip the sender itself).
func fanout(dsts []message.NodeID, self message.NodeID) int {
	n := 0
	for _, d := range dsts {
		if d != self {
			n++
		}
	}
	return n
}

func (t *tap) observe(dir evDir, node message.NodeID, p []byte, datagrams int) {
	if !t.on.Load() {
		return
	}
	now := int64(time.Since(t.base))
	if dir == evTx {
		t.txMsgs.Add(int64(datagrams))
		t.txBytes.Add(int64(datagrams * len(p)))
	} else {
		t.rxMsgs.Add(1)
		if node == 0 {
			t.capture(p)
		}
	}
	m, err := message.Unmarshal(p)
	if err != nil {
		return
	}
	e := event{t: now, node: int32(node), from: int32(m.Sender()), typ: m.MsgType(), dir: dir}
	switch m := m.(type) {
	case *message.Request:
		e.a, e.b = uint64(m.Client), m.Timestamp
		if dir == evTx && node.IsClient() {
			t.reqSends.Add(1)
			t.noteSize(&t.reqSize, len(p))
			// 255 is the engine's inline threshold (§5.1.5): larger
			// requests appear in pre-prepares by digest only.
			if len(m.Op) > 255 {
				d := m.Digest()
				t.mu.Lock()
				t.bigReqs[d] = reqKey{m.Client, m.Timestamp}
				t.mu.Unlock()
			}
		}
	case *message.Reply:
		e.a, e.b = uint64(m.Client), m.Timestamp
		if dir == evTx && m.HasResult {
			t.noteSize(&t.replySize, len(p))
		}
	case *message.PrePrepare:
		e.a, e.b = uint64(m.View), uint64(m.Seq)
		if dir == evTx && node == m.Replica {
			c := batchContent{digests: m.Digests}
			for i := range m.Inline {
				c.inline = append(c.inline, reqKey{m.Inline[i].Client, m.Inline[i].Timestamp})
			}
			t.mu.Lock()
			t.batches[slotKey{e.a, e.b}] = c
			t.mu.Unlock()
		}
	case *message.Prepare:
		e.a, e.b = uint64(m.View), uint64(m.Seq)
	case *message.Commit:
		e.a, e.b = uint64(m.View), uint64(m.Seq)
	default:
		return // counted above; no span needs it
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.ev)) {
		t.dropped.Add(1)
		return
	}
	t.ev[i] = e
}

func (t *tap) noteSize(dst *int, n int) {
	t.capMu.Lock()
	if *dst == 0 {
		*dst = n
	}
	t.capMu.Unlock()
}

// capture keeps a copy of the datagram for the layer probes. udpnet hands
// the handler a fresh slice and simnet never reuses one, but the copy keeps
// the probes independent of either promise.
func (t *tap) capture(p []byte) {
	t.capMu.Lock()
	if len(t.captured) < maxCaptured && t.capBytes+len(p) <= maxCapturedByte {
		t.captured = append(t.captured, append([]byte(nil), p...))
		t.capBytes += len(p)
	}
	t.capMu.Unlock()
}

// events returns the recorded prefix of the buffer. Call it only after
// every node is stopped.
func (t *tap) events() []event {
	n := t.n.Load()
	if n > int64(len(t.ev)) {
		n = int64(len(t.ev))
	}
	return t.ev[:n]
}

// serviceFactory wraps svc so that replica's Execute calls are timed.
func (t *tap) serviceFactory(replica int, svc bft.ServiceFactory) bft.ServiceFactory {
	return func(r *bft.Region) bft.Service {
		s := &tapService{Service: svc(r), tap: t, replica: replica}
		t.mu.Lock()
		t.services = append(t.services, s)
		t.mu.Unlock()
		return s
	}
}

// tapService times Execute; the other upcalls pass through. Execute runs
// on one goroutine per replica (the executor), which alone appends to ev;
// the slice is read after that replica has stopped.
type tapService struct {
	bft.Service
	tap     *tap
	replica int
	ev      []execEvent
}

func (s *tapService) Execute(client message.NodeID, op []byte, nondet []byte) []byte {
	if !s.tap.on.Load() {
		return s.Service.Execute(client, op, nondet)
	}
	start := int64(time.Since(s.tap.base))
	res := s.Service.Execute(client, op, nondet)
	s.ev = append(s.ev, execEvent{start: start, end: int64(time.Since(s.tap.base)), client: client})
	return res
}
