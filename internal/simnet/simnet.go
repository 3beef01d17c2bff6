// Package simnet is the network substrate for in-process BFT clusters. It
// models the unreliable multicast channel of Section 2.4.2: messages may be
// delayed, dropped, duplicated, or reordered, and an adversary hook may
// inspect, modify, or suppress traffic between any pair of principals.
//
// The paper's testbed was a switched 10 Mbit/s Ethernet carrying UDP; here a
// central scheduler goroutine applies a per-link latency model
// (base + jitter + bytes/bandwidth) and delivers into bounded per-endpoint
// queues, so overload produces drops exactly like a UDP socket buffer.
//
// Ownership follows udpnet: every send copies its payload once into a
// 64 KiB slab owned by the sending endpoint and keeps nothing of the
// caller's buffer after it returns, so the Owned forms release it at once.
// The receivers of a multicast share that one copy, a view clipped to its
// length, and simnet never writes a slab region again once it has handed
// it out. A view a receiver keeps pins its whole slab, as with udpnet.
// Delayed datagrams wait by value in a heap the scheduler owns, so a send
// allocates nothing in steady state.
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

// LinkConfig sets the delay/loss model for one direction of one link (or the
// network default).
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
	overrides map[linkKey]LinkConfig
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
		overrides: make(map[linkKey]LinkConfig),
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

// SetDefaults replaces the default link model at runtime (links with a
// SetLink override keep it). In-flight datagrams already scheduled under
// the old model are unaffected.
func (n *Network) SetDefaults(cfg LinkConfig) {
	n.mu.Lock()
	n.defaults = cfg
	n.mu.Unlock()
}

// SetLink overrides the model for the directed link src->dst.
func (n *Network) SetLink(src, dst message.NodeID, cfg LinkConfig) {
	n.mu.Lock()
	n.overrides[linkKey{src, dst}] = cfg
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

// Unblock restores the directed link src->dst.
func (n *Network) Unblock(src, dst message.NodeID) {
	n.mu.Lock()
	delete(n.blocked, linkKey{src, dst})
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

// send delivers one datagram from ep to dst. It keeps only its own copy
// of payload.
func (n *Network) send(ep *endpoint, dst message.NodeID, payload []byte) {
	if n.closed.Load() {
		return
	}
	src := ep.id
	payload = ep.own(payload)
	atomic.AddUint64(&n.stats.MsgsSent, 1)
	atomic.AddUint64(&n.stats.BytesSent, uint64(len(payload)))

	n.mu.RLock()
	blocked := n.blocked[linkKey{src, dst}]
	cfg, hasOverride := n.overrides[linkKey{src, dst}]
	if !hasOverride {
		cfg = n.defaults
	}
	filter := n.filter
	_, dstExists := n.endpoints[dst]
	n.mu.RUnlock()

	if blocked || !dstExists {
		atomic.AddUint64(&n.stats.MsgsDropped, 1)
		return
	}
	if filter != nil {
		var deliver bool
		payload, deliver = filter(src, dst, payload)
		if !deliver {
			atomic.AddUint64(&n.stats.MsgsDropped, 1)
			return
		}
	}

	n.rngMu.Lock()
	loss := cfg.LossRate > 0 && n.rng.Float64() < cfg.LossRate
	dup := cfg.DupRate > 0 && n.rng.Float64() < cfg.DupRate
	var jitter time.Duration
	if cfg.Jitter > 0 {
		jitter = time.Duration(n.rng.Int63n(int64(cfg.Jitter)))
	}
	n.rngMu.Unlock()

	if loss {
		atomic.AddUint64(&n.stats.MsgsDropped, 1)
		return
	}

	delay := cfg.Latency + jitter
	if cfg.BytesPerSec > 0 {
		delay += time.Duration(float64(len(payload)) / cfg.BytesPerSec * float64(time.Second))
	}

	copies := 1
	if dup {
		copies = 2
	}
	for c := 0; c < copies; c++ {
		if delay <= 0 {
			n.deliver(dst, payload)
			continue
		}
		d := delivery{
			at:      time.Now().Add(delay),
			dst:     dst,
			payload: payload,
			seq:     atomic.AddUint64(&seqCounter, 1),
		}
		n.qMu.Lock()
		n.q.push(d)
		n.qMu.Unlock()
		select {
		case n.wake <- struct{}{}:
		default:
		}
	}
}

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

// multicast is the coalesced fan-out behind transport.Multicaster: one
// submission delivers payload to every destination, taking each network
// lock once for the whole set instead of once per destination. Its
// observable behavior (stats, filters, loss/dup/jitter draws, delivery
// order) is identical to looping send over dsts — the PRNG is consumed in
// the same per-destination order — so a simulation does not depend on which
// of the two surfaces a sender uses. Every destination gets the same one
// copy of payload.
func (n *Network) multicast(ep *endpoint, dsts []message.NodeID, payload []byte) {
	if n.closed.Load() {
		return
	}
	src := ep.id
	payload = ep.own(payload)
	type hop struct {
		ep      *endpoint
		cfg     LinkConfig
		payload []byte
	}
	// Small groups (every BFT multicast) plan on the stack; per-multicast
	// heap traffic would eat the coalescing win.
	var hopBuf [16]hop
	hops := hopBuf[:0]
	if len(dsts) > len(hopBuf) {
		hops = make([]hop, 0, len(dsts))
	}
	var dropped uint64

	// One read-lock round: link decisions for every destination.
	n.mu.RLock()
	filter := n.filter
	for _, dst := range dsts {
		if dst == src {
			continue
		}
		atomic.AddUint64(&n.stats.MsgsSent, 1)
		atomic.AddUint64(&n.stats.BytesSent, uint64(len(payload)))
		ep := n.endpoints[dst]
		if ep == nil || n.blocked[linkKey{src, dst}] {
			dropped++
			continue
		}
		cfg, ok := n.overrides[linkKey{src, dst}]
		if !ok {
			cfg = n.defaults
		}
		hops = append(hops, hop{ep: ep, cfg: cfg, payload: payload})
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
	type fate struct {
		loss, dup bool
		jitter    time.Duration
	}
	var fateBuf [16]fate
	fates := fateBuf[:]
	if len(hops) > len(fateBuf) {
		fates = make([]fate, len(hops))
	} else {
		fates = fates[:len(hops)]
	}
	n.rngMu.Lock()
	for i, h := range hops {
		fates[i].loss = h.cfg.LossRate > 0 && n.rng.Float64() < h.cfg.LossRate
		fates[i].dup = h.cfg.DupRate > 0 && n.rng.Float64() < h.cfg.DupRate
		if h.cfg.Jitter > 0 {
			fates[i].jitter = time.Duration(n.rng.Int63n(int64(h.cfg.Jitter)))
		}
	}
	n.rngMu.Unlock()

	now := time.Now()
	var delayedBuf [2 * len(hopBuf)]delivery // a duplicate is a second delivery
	delayed := delayedBuf[:0]
	for i, h := range hops {
		if fates[i].loss {
			dropped++
			continue
		}
		delay := h.cfg.Latency + fates[i].jitter
		if h.cfg.BytesPerSec > 0 {
			delay += time.Duration(float64(len(h.payload)) / h.cfg.BytesPerSec * float64(time.Second))
		}
		copies := 1
		if fates[i].dup {
			copies = 2
		}
		for c := 0; c < copies; c++ {
			if delay <= 0 {
				n.deliverEp(h.ep, h.payload)
				continue
			}
			delayed = append(delayed, delivery{
				at:      now.Add(delay),
				dst:     h.ep.id,
				payload: h.payload,
				seq:     atomic.AddUint64(&seqCounter, 1),
			})
		}
	}
	if dropped > 0 {
		atomic.AddUint64(&n.stats.MsgsDropped, dropped)
	}
	if len(delayed) > 0 {
		// One heap round and one scheduler wake for the whole batch.
		n.qMu.Lock()
		for _, d := range delayed {
			n.q.push(d)
		}
		n.qMu.Unlock()
		select {
		case n.wake <- struct{}{}:
		default:
		}
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
var _ transport.Multicaster = (*endpoint)(nil)
var _ transport.Network = (*Network)(nil)

// Self implements transport.Transport.
func (ep *endpoint) Self() message.NodeID { return ep.id }

// Send implements transport.Transport. It keeps nothing of payload after
// it returns.
func (ep *endpoint) Send(dst message.NodeID, payload []byte) {
	ep.net.send(ep, dst, payload)
}

// Multicast implements transport.Transport. It keeps nothing of payload
// after it returns.
func (ep *endpoint) Multicast(dsts []message.NodeID, payload []byte) {
	ep.net.multicast(ep, dsts, payload)
}

// MulticastOwned implements transport.Multicaster: the whole destination
// set is submitted in one coalesced round over one copy of payload, and
// payload is released before the call returns, so the egress stage can
// recycle it.
func (ep *endpoint) MulticastOwned(dsts []message.NodeID, payload []byte, release func([]byte)) {
	ep.net.multicast(ep, dsts, payload)
	if release != nil {
		release(payload)
	}
}

// SendOwned implements transport.Multicaster (single-destination form).
func (ep *endpoint) SendOwned(dst message.NodeID, payload []byte, release func([]byte)) {
	ep.net.send(ep, dst, payload)
	if release != nil {
		release(payload)
	}
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
