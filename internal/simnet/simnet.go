// Package simnet is the network substrate for in-process BFT clusters. It
// models the unreliable multicast channel of Section 2.4.2: messages may be
// delayed, dropped, duplicated, or reordered, and an adversary hook may
// inspect, modify, or suppress traffic between any pair of principals.
//
// The paper's testbed was a switched 10 Mbit/s Ethernet carrying UDP; here
// every link follows one latency model (base + jitter + bytes/bandwidth),
// a central scheduler goroutine delivers delayed datagrams, and deliveries
// land in bounded per-endpoint queues, so overload produces drops exactly
// like a UDP socket buffer. Send is the one-destination case of Multicast:
// both go through one function that prices every hop.
//
// Ownership follows udpnet: every send copies its payload once into a
// 64 KiB slab owned by the sending endpoint and keeps nothing of the
// caller's buffer after it returns. The receivers of a multicast share
// that one copy, a view clipped to its length, and simnet never writes a
// slab region again once it has handed it out. A view a receiver keeps
// pins its whole slab, as with udpnet. Delayed datagrams wait by value in
// a heap the scheduler owns, so a send allocates nothing in steady state.
package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/message"
	"repro/internal/transport"
)

// LinkConfig sets the delay/loss model every link follows.
type LinkConfig struct {
	// Latency is the fixed one-way propagation delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// BytesPerSec models serialization time (0 = infinite bandwidth).
	BytesPerSec float64
	// LossRate drops datagrams with this probability in [0,1).
	LossRate float64
	// DupRate duplicates datagrams with this probability in [0,1).
	DupRate float64
}

// Filter inspects a datagram in flight. It returns the (possibly modified)
// payload and whether to deliver it. Filters are the adversary hook used by
// fault-injection tests: they can corrupt, drop, or record traffic.
type Filter func(src, dst message.NodeID, payload []byte) ([]byte, bool)

// Stats aggregates network counters.
type Stats struct {
	MsgsSent     uint64
	BytesSent    uint64
	MsgsDropped  uint64 // loss model + partitions + filters
	MsgsOverflow uint64 // receiver queue full
}

// Network is an in-process simulated datagram network.
type Network struct {
	mu        sync.RWMutex
	endpoints map[message.NodeID]*endpoint
	defaults  LinkConfig
	blocked   map[linkKey]bool
	filter    Filter
	rng       *rand.Rand
	rngMu     sync.Mutex

	stats Stats

	q      deliveryQueue
	qMu    sync.Mutex
	wake   chan struct{}
	closed atomic.Bool
	done   chan struct{}
}

// queueCap is each endpoint's receive queue capacity; a datagram arriving
// at a full queue is dropped and counted in Stats.MsgsOverflow.
const queueCap = 8192

// sendSlab is the size of the slabs an endpoint copies its outgoing
// datagrams into, the size of udpnet's receive slabs.
const sendSlab = 64 << 10

type linkKey struct{ src, dst message.NodeID }

type delivery struct {
	at      time.Time
	dst     message.NodeID
	payload []byte
	seq     uint64 // tie-break for stable ordering
}

// deliveryQueue is a binary min-heap of deliveries by (at, seq), held by
// value: container/heap's interface would box every push.
type deliveryQueue []delivery

func (q deliveryQueue) less(i, j int) bool {
	if q[i].at.Equal(q[j].at) {
		return q[i].seq < q[j].seq
	}
	return q[i].at.Before(q[j].at)
}

func (q *deliveryQueue) push(d delivery) {
	*q = append(*q, d)
	h := *q
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// pop removes and returns the earliest delivery; the queue must not be
// empty.
func (q *deliveryQueue) pop() delivery {
	h := *q
	d := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = delivery{} // the backing array must not pin the payload
	h = h[:last]
	for i := 0; ; {
		m := 2*i + 1
		if m >= len(h) {
			break
		}
		if r := m + 1; r < len(h) && h.less(r, m) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	*q = h
	return d
}

type endpoint struct {
	id    message.NodeID
	net   *Network
	queue chan []byte
	stop  chan struct{}
	once  sync.Once

	slabMu sync.Mutex
	slab   []byte // unused tail of the current send slab; the first is lazy
}

// own copies payload into the endpoint's send slab and returns the copy,
// its capacity clipped to its length so that an append reallocates rather
// than writing into the next datagram. A datagram larger than a slab gets
// a buffer of its own.
func (ep *endpoint) own(payload []byte) []byte {
	n := len(payload)
	if n > sendSlab {
		return append([]byte(nil), payload...)
	}
	ep.slabMu.Lock()
	if len(ep.slab) < n {
		ep.slab = make([]byte, sendSlab)
	}
	p := ep.slab[:n:n]
	ep.slab = ep.slab[n:]
	ep.slabMu.Unlock()
	copy(p, payload)
	return p
}

// Option configures a Network.
type Option func(*Network)

// WithDefaults sets the default link model.
func WithDefaults(cfg LinkConfig) Option {
	return func(n *Network) { n.defaults = cfg }
}

// WithSeed seeds the network PRNG for reproducible loss/jitter.
func WithSeed(seed int64) Option {
	return func(n *Network) { n.rng = rand.New(rand.NewSource(seed)) }
}

// New creates a network and starts its delivery scheduler.
func New(opts ...Option) *Network {
	n := &Network{
		endpoints: make(map[message.NodeID]*endpoint),
		blocked:   make(map[linkKey]bool),
		rng:       rand.New(rand.NewSource(1)),
		wake:      make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
	for _, o := range opts {
		o(n)
	}
	go n.run()
	return n
}

// Close stops the scheduler and detaches all endpoints.
func (n *Network) Close() {
	if n.closed.CompareAndSwap(false, true) {
		close(n.done)
		n.mu.Lock()
		eps := make([]*endpoint, 0, len(n.endpoints))
		for _, ep := range n.endpoints {
			eps = append(eps, ep)
		}
		n.mu.Unlock()
		for _, ep := range eps {
			ep.Close()
		}
	}
}

// Attach registers an endpoint and starts a dispatch goroutine invoking h
// serially for each delivered datagram. It implements transport.Network.
// Attaching a principal that is already attached panics, like a UDP bind
// on a port in use — silently replacing the endpoint would wedge the
// first attachment with no diagnosis (its traffic would route to the
// newer one). Re-attach after Close is fine.
func (n *Network) Attach(id message.NodeID, h transport.Handler) transport.Transport {
	ep := &endpoint{
		id:    id,
		net:   n,
		queue: make(chan []byte, queueCap),
		stop:  make(chan struct{}),
	}
	n.mu.Lock()
	if _, live := n.endpoints[id]; live {
		n.mu.Unlock()
		panic(fmt.Sprintf("simnet: principal %d attached twice", id))
	}
	n.endpoints[id] = ep
	n.mu.Unlock()
	go func() {
		for {
			select {
			case p := <-ep.queue:
				h(p)
			case <-ep.stop:
				return
			}
		}
	}()
	return ep
}

// SetDefaults replaces the link model at runtime. In-flight datagrams
// already scheduled under the old model are unaffected.
func (n *Network) SetDefaults(cfg LinkConfig) {
	n.mu.Lock()
	n.defaults = cfg
	n.mu.Unlock()
}

// SetFilter installs the adversary hook (nil clears it).
func (n *Network) SetFilter(f Filter) {
	n.mu.Lock()
	n.filter = f
	n.mu.Unlock()
}

// Block severs the directed link src->dst.
func (n *Network) Block(src, dst message.NodeID) {
	n.mu.Lock()
	n.blocked[linkKey{src, dst}] = true
	n.mu.Unlock()
}

// Isolate severs all traffic to and from id.
func (n *Network) Isolate(id message.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.endpoints {
		if other != id {
			n.blocked[linkKey{id, other}] = true
			n.blocked[linkKey{other, id}] = true
		}
	}
}

// Heal removes every block.
func (n *Network) Heal() {
	n.mu.Lock()
	n.blocked = make(map[linkKey]bool)
	n.mu.Unlock()
}

// Partition splits the network into groups; traffic crossing group
// boundaries is dropped until Heal.
func (n *Network) Partition(groups ...[]message.NodeID) {
	groupOf := make(map[message.NodeID]int)
	for gi, g := range groups {
		for _, id := range g {
			groupOf[id] = gi
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	ids := make([]message.NodeID, 0, len(n.endpoints))
	for id := range n.endpoints {
		ids = append(ids, id)
	}
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			ga, oka := groupOf[a]
			gb, okb := groupOf[b]
			if !oka || !okb || ga != gb {
				n.blocked[linkKey{a, b}] = true
			}
		}
	}
}

// Stats returns a snapshot of the counters.
func (n *Network) Stats() Stats {
	return Stats{
		MsgsSent:     atomic.LoadUint64(&n.stats.MsgsSent),
		BytesSent:    atomic.LoadUint64(&n.stats.BytesSent),
		MsgsDropped:  atomic.LoadUint64(&n.stats.MsgsDropped),
		MsgsOverflow: atomic.LoadUint64(&n.stats.MsgsOverflow),
	}
}

var seqCounter uint64

func (n *Network) deliver(dst message.NodeID, payload []byte) {
	n.mu.RLock()
	ep := n.endpoints[dst]
	n.mu.RUnlock()
	if ep == nil {
		atomic.AddUint64(&n.stats.MsgsDropped, 1)
		return
	}
	n.deliverEp(ep, payload)
}

func (n *Network) deliverEp(ep *endpoint, payload []byte) {
	select {
	case ep.queue <- payload:
	default:
		atomic.AddUint64(&n.stats.MsgsOverflow, 1)
	}
}

// send transmits one copy of payload from ep to every id in dsts, skipping
// ep itself when skipSelf is set. It is the network's one link model: each
// hop is counted, checked against blocks, shown to the filter, and drawn
// loss, duplication and jitter from the PRNG in destination order, then
// delivered at once or scheduled after its delay. Each network lock is
// taken once for the whole set. Every destination gets the same one copy
// of payload, and send keeps nothing of the caller's buffer.
func (n *Network) send(ep *endpoint, dsts []message.NodeID, payload []byte, skipSelf bool) {
	if n.closed.Load() {
		return
	}
	src := ep.id
	payload = ep.own(payload)
	type hop struct {
		ep        *endpoint
		payload   []byte
		loss, dup bool
		delay     time.Duration
	}
	// Small groups (every BFT multicast) plan on the stack, so a send
	// allocates nothing.
	var hopBuf [16]hop
	hops := hopBuf[:0]
	if len(dsts) > len(hopBuf) {
		hops = make([]hop, 0, len(dsts))
	}
	var dropped uint64

	// One read-lock round: link decisions for every destination.
	n.mu.RLock()
	cfg := n.defaults
	filter := n.filter
	for _, dst := range dsts {
		if skipSelf && dst == src {
			continue
		}
		atomic.AddUint64(&n.stats.MsgsSent, 1)
		atomic.AddUint64(&n.stats.BytesSent, uint64(len(payload)))
		ep := n.endpoints[dst]
		if ep == nil || n.blocked[linkKey{src, dst}] {
			dropped++
			continue
		}
		hops = append(hops, hop{ep: ep, payload: payload})
	}
	n.mu.RUnlock()

	// Adversary hook outside the lock (filters may reconfigure the network).
	if filter != nil {
		kept := hops[:0]
		for _, h := range hops {
			p, deliver := filter(src, h.ep.id, h.payload)
			if !deliver {
				dropped++
				continue
			}
			h.payload = p
			kept = append(kept, h)
		}
		hops = kept
	}

	// One PRNG round for the whole set.
	n.rngMu.Lock()
	for i := range hops {
		h := &hops[i]
		h.loss = cfg.LossRate > 0 && n.rng.Float64() < cfg.LossRate
		h.dup = cfg.DupRate > 0 && n.rng.Float64() < cfg.DupRate
		if cfg.Jitter > 0 {
			h.delay = time.Duration(n.rng.Int63n(int64(cfg.Jitter)))
		}
	}
	n.rngMu.Unlock()

	delayed := false
	for i := range hops {
		h := &hops[i]
		if h.loss {
			dropped++
			continue
		}
		h.delay += cfg.Latency
		if cfg.BytesPerSec > 0 {
			h.delay += time.Duration(float64(len(h.payload)) / cfg.BytesPerSec * float64(time.Second))
		}
		if h.delay > 0 {
			delayed = true
			continue
		}
		n.deliverEp(h.ep, h.payload)
		if h.dup {
			n.deliverEp(h.ep, h.payload)
		}
	}
	if dropped > 0 {
		atomic.AddUint64(&n.stats.MsgsDropped, dropped)
	}
	if !delayed {
		return
	}
	// One heap round and one scheduler wake for the whole set; a duplicate
	// is a second delivery.
	now := time.Now()
	n.qMu.Lock()
	for _, h := range hops {
		if h.loss || h.delay <= 0 {
			continue
		}
		d := delivery{at: now.Add(h.delay), dst: h.ep.id, payload: h.payload}
		d.seq = atomic.AddUint64(&seqCounter, 1)
		n.q.push(d)
		if h.dup {
			d.seq = atomic.AddUint64(&seqCounter, 1)
			n.q.push(d)
		}
	}
	n.qMu.Unlock()
	select {
	case n.wake <- struct{}{}:
	default:
	}
}

// run is the delivery scheduler loop.
func (n *Network) run() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		n.qMu.Lock()
		pending := len(n.q) > 0
		var next time.Time
		if pending {
			next = n.q[0].at
		}
		n.qMu.Unlock()

		if !pending {
			select {
			case <-n.wake:
				continue
			case <-n.done:
				return
			}
		}

		wait := time.Until(next)
		if wait <= 0 {
			n.qMu.Lock()
			d := n.q.pop()
			n.qMu.Unlock()
			n.deliver(d.dst, d.payload)
			continue
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(wait)
		select {
		case <-timer.C:
		case <-n.wake:
		case <-n.done:
			return
		}
	}
}

// --- endpoint (transport.Transport implementation) ---

var _ transport.Transport = (*endpoint)(nil)
var _ transport.Network = (*Network)(nil)

// Self implements transport.Transport.
func (ep *endpoint) Self() message.NodeID { return ep.id }

// Send implements transport.Transport. A datagram to the sender itself is
// delivered like any other. Send keeps nothing of payload after it
// returns.
func (ep *endpoint) Send(dst message.NodeID, payload []byte) {
	dsts := [1]message.NodeID{dst}
	ep.net.send(ep, dsts[:], payload, false)
}

// Multicast implements transport.Transport, skipping the sender itself. It
// keeps nothing of payload after it returns.
func (ep *endpoint) Multicast(dsts []message.NodeID, payload []byte) {
	ep.net.send(ep, dsts, payload, true)
}

// Close implements transport.Transport.
func (ep *endpoint) Close() {
	ep.once.Do(func() {
		close(ep.stop)
		ep.net.mu.Lock()
		if ep.net.endpoints[ep.id] == ep {
			delete(ep.net.endpoints, ep.id)
		}
		ep.net.mu.Unlock()
	})
}
