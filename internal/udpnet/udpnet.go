// Package udpnet is a real-network transport with the same interface as the
// in-process simulator: UDP datagrams between principals, exactly like the
// thesis's implementation (§6.1 "point-to-point communication between nodes
// is implemented using UDP"). It exists so the same replica code can run
// across processes; the repository benchmark runs its loopback workloads
// over it and the rest over simnet.
package udpnet

import (
	"fmt"
	"net"
	"sync"

	"repro/internal/message"
	"repro/internal/transport"
)

// MaxDatagram bounds datagram size (the thesis capped pre-prepares at 9000
// bytes to fit common kernel configurations; we allow more for large
// state-transfer pages).
const MaxDatagram = 64 * 1024

// readBuffer is the socket receive buffer Listen asks for. The handler
// authenticates each datagram on the read loop, so a burst waits in the
// kernel meanwhile; the default buffer (about 208 KiB on Linux) overflows
// under the benchmark's 4 KiB write load. The kernel caps the request at
// net.core.rmem_max.
const readBuffer = 4 << 20

// AddressBook maps principals to UDP addresses.
type AddressBook struct {
	mu    sync.RWMutex
	addrs map[message.NodeID]*net.UDPAddr
}

// NewAddressBook creates an empty book.
func NewAddressBook() *AddressBook {
	return &AddressBook{addrs: make(map[message.NodeID]*net.UDPAddr)}
}

// LocalBook maps replicas 0..n-1 (and clients from message.ClientIDBase) to
// consecutive loopback ports starting at basePort.
func LocalBook(n int, basePort int, clients int) (*AddressBook, error) {
	b := NewAddressBook()
	for i := 0; i < n; i++ {
		if err := b.Set(message.NodeID(i), fmt.Sprintf("127.0.0.1:%d", basePort+i)); err != nil {
			return nil, err
		}
	}
	for c := 0; c < clients; c++ {
		id := message.ClientIDBase + message.NodeID(c)
		if err := b.Set(id, fmt.Sprintf("127.0.0.1:%d", basePort+n+c)); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// LoopbackBook maps replicas 0..n-1 and clients 0..clients-1 (from
// message.ClientIDBase) to kernel-chosen free ports on 127.0.0.1: each
// port is reserved with a probe bind, recorded, and released. The window
// between release and the principal's real bind is tiny, and a lost race
// surfaces as a bind error at Attach, never as silent misrouting.
func LoopbackBook(n, clients int) (*AddressBook, error) {
	b := NewAddressBook()
	ids := make([]message.NodeID, 0, n+clients)
	for i := 0; i < n; i++ {
		ids = append(ids, message.NodeID(i))
	}
	for c := 0; c < clients; c++ {
		ids = append(ids, message.ClientIDBase+message.NodeID(c))
	}
	conns := make([]*net.UDPConn, 0, len(ids))
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	for _, id := range ids {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			return nil, fmt.Errorf("udpnet: reserve loopback port: %w", err)
		}
		conns = append(conns, conn)
		if err := b.Set(id, conn.LocalAddr().String()); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Set registers a principal's address.
func (b *AddressBook) Set(id message.NodeID, addr string) error {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("udpnet: resolve %q: %w", addr, err)
	}
	b.mu.Lock()
	b.addrs[id] = ua
	b.mu.Unlock()
	return nil
}

// Lookup returns a principal's address.
func (b *AddressBook) Lookup(id message.NodeID) (*net.UDPAddr, bool) {
	b.mu.RLock()
	defer b.mu.RUnlock()
	a, ok := b.addrs[id]
	return a, ok
}

// Endpoint is a UDP transport bound to one principal's address.
type Endpoint struct {
	self message.NodeID
	book *AddressBook
	conn *net.UDPConn
	wg   sync.WaitGroup
	once sync.Once
}

var _ transport.Transport = (*Endpoint)(nil)
var _ transport.Multicaster = (*Endpoint)(nil)

// Listen binds the principal's socket and starts delivering inbound
// datagrams to h.
func Listen(self message.NodeID, book *AddressBook, h transport.Handler) (*Endpoint, error) {
	addr, ok := book.Lookup(self)
	if !ok {
		return nil, fmt.Errorf("udpnet: no address for principal %d", self)
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("udpnet: listen %v: %w", addr, err)
	}
	// Best effort: a refusal leaves the default buffer, which costs only
	// drops under bursts, like any lossy link.
	_ = conn.SetReadBuffer(readBuffer)
	ep := &Endpoint{self: self, book: book, conn: conn}
	ep.wg.Add(1)
	go func() {
		defer ep.wg.Done()
		buf := make([]byte, MaxDatagram)
		for {
			n, _, err := conn.ReadFromUDP(buf)
			if err != nil {
				return // closed
			}
			// The handler owns what it is given, and buf is read into
			// again: hand it a copy.
			p := make([]byte, n)
			copy(p, buf[:n])
			h(p)
		}
	}()
	return ep, nil
}

// Self implements transport.Transport.
func (ep *Endpoint) Self() message.NodeID { return ep.self }

// Send implements transport.Transport.
func (ep *Endpoint) Send(dst message.NodeID, payload []byte) {
	if len(payload) > MaxDatagram {
		return
	}
	if addr, ok := ep.book.Lookup(dst); ok {
		ep.conn.WriteToUDP(payload, addr) //nolint:errcheck // UDP is lossy by contract
	}
}

// Multicast implements transport.Transport (iterated unicast; the thesis used
// IP multicast where available with the same semantics).
func (ep *Endpoint) Multicast(dsts []message.NodeID, payload []byte) {
	for _, d := range dsts {
		if d != ep.self {
			ep.Send(d, payload)
		}
	}
}

// MulticastOwned implements transport.Multicaster: the n datagrams of one
// multicast leave in one tight loop over a single buffer, and the buffer is
// released as soon as the kernel has copied the last datagram out (UDP
// writes are synchronous copies), so the egress stage can recycle it.
func (ep *Endpoint) MulticastOwned(dsts []message.NodeID, payload []byte, release func([]byte)) {
	ep.Multicast(dsts, payload)
	if release != nil {
		release(payload)
	}
}

// SendOwned implements transport.Multicaster (single-destination form).
func (ep *Endpoint) SendOwned(dst message.NodeID, payload []byte, release func([]byte)) {
	ep.Send(dst, payload)
	if release != nil {
		release(payload)
	}
}

// Close implements transport.Transport.
func (ep *Endpoint) Close() {
	ep.once.Do(func() {
		ep.conn.Close()
		ep.wg.Wait()
	})
}
