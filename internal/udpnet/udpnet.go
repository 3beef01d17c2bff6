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

// recvSlab is the size of the receive slabs Listen copies datagrams into.
// It is MaxDatagram so that any datagram fits in a fresh slab.
const recvSlab = MaxDatagram

// AddressBook maps principals to UDP addresses.
type AddressBook struct {
	mu    sync.RWMutex
	addrs map[message.NodeID]*net.UDPAddr
}

// NewAddressBook creates an empty book.
func NewAddressBook() *AddressBook {
	return &AddressBook{addrs: make(map[message.NodeID]*net.UDPAddr)}
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

// Listen binds the principal's socket and starts delivering inbound
// datagrams to h.
//
// Each datagram is copied out of the one read buffer into a shared receive
// slab, and h gets a view of it whose capacity is clipped to its length, so
// an append reallocates rather than writing into the next datagram. The read
// loop never writes a slab region again once it has handed it out. A view
// the handler keeps pins its whole slab, so kept views hold at most
// recvSlab (64 KiB) of memory each.
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
		var slab []byte // unused tail of the current slab; the first is lazy
		for {
			// The AddrPort form returns the sender by value; ReadFromUDP
			// allocates its IP on every call.
			n, _, err := conn.ReadFromUDPAddrPort(buf)
			if err != nil {
				return // closed
			}
			if len(slab) < n {
				slab = make([]byte, recvSlab)
			}
			p := slab[:n:n]
			copy(p, buf[:n])
			slab = slab[n:]
			h(p)
		}
	}()
	return ep, nil
}

// Self implements transport.Transport.
func (ep *Endpoint) Self() message.NodeID { return ep.self }

// Send implements transport.Transport. The write is a synchronous copy
// into the kernel, so Send keeps nothing of payload after it returns.
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

// Close implements transport.Transport.
func (ep *Endpoint) Close() {
	ep.once.Do(func() {
		ep.conn.Close()
		ep.wg.Wait()
	})
}
