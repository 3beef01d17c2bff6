package udpnet

import (
	"bytes"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/message"
)

func TestLocalBookAndRoundTrip(t *testing.T) {
	book, err := LoopbackBook(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var got [][]byte
	seen := make(chan struct{}, 16)

	a, err := Listen(0, book, func(p []byte) {
		mu.Lock()
		got = append(got, p)
		mu.Unlock()
		seen <- struct{}{}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	// The handler runs on the receive goroutine: publish the endpoint to it
	// atomically (a plain captured variable would race the assignment).
	var echo atomic.Pointer[Endpoint]
	b, err := Listen(1, book, func(p []byte) {
		if ep := echo.Load(); ep != nil {
			ep.Send(0, append([]byte("echo:"), p...))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	echo.Store(b)

	a.Send(1, []byte("ping"))
	select {
	case <-seen:
	case <-time.After(2 * time.Second):
		t.Fatal("no echo")
	}
	mu.Lock()
	defer mu.Unlock()
	if string(got[0]) != "echo:ping" {
		t.Fatalf("got %q", got[0])
	}
}

func TestMulticastSkipsSelfUDP(t *testing.T) {
	book, err := LoopbackBook(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]chan struct{}, 3)
	eps := make([]*Endpoint, 3)
	for i := 0; i < 3; i++ {
		counts[i] = make(chan struct{}, 8)
		ch := counts[i]
		ep, err := Listen(message.NodeID(i), book, func(p []byte) { ch <- struct{}{} })
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
	}
	eps[0].Multicast([]message.NodeID{0, 1, 2}, []byte("m"))
	for i := 1; i < 3; i++ {
		select {
		case <-counts[i]:
		case <-time.After(2 * time.Second):
			t.Fatalf("endpoint %d missed multicast", i)
		}
	}
	select {
	case <-counts[0]:
		t.Fatal("self received own multicast")
	case <-time.After(50 * time.Millisecond):
	}
}

func TestSendToUnknownIsNoop(t *testing.T) {
	book, err := LoopbackBook(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ep, err := Listen(0, book, func([]byte) {})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	ep.Send(99, []byte("void")) // must not panic
	ep.Send(1, make([]byte, MaxDatagram+1))
}

func TestAddressBookErrors(t *testing.T) {
	b := NewAddressBook()
	if err := b.Set(0, "not-an-address:-1"); err == nil {
		t.Fatal("bad address accepted")
	}
	if _, ok := b.Lookup(0); ok {
		t.Fatal("phantom address")
	}
}

// dialer returns a socket connected to principal id's address, for tests
// that send raw datagrams without an endpoint of their own.
func dialer(t *testing.T, book *AddressBook, id message.NodeID) *net.UDPConn {
	t.Helper()
	addr, ok := book.Lookup(id)
	if !ok {
		t.Fatalf("no address for %d", id)
	}
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// TestReceivedDatagramsStayIntact checks the receive slab's ownership
// contract: every payload the handler keeps still holds what was sent
// after later datagrams arrived, including one that did not fit in the
// current slab's remainder, and none can be appended to in place.
func TestReceivedDatagramsStayIntact(t *testing.T) {
	book, err := LoopbackBook(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan []byte, 64)
	ep, err := Listen(0, book, func(p []byte) { got <- p })
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	conn := dialer(t, book, 0)

	// The first four datagrams leave 5,235 bytes of the first 64 KiB slab,
	// so the 10,000-byte one opens a second slab; the small ones then share
	// it, and the largest opens a third.
	sizes := []int{1, 300, 30000, 30000, 10000, 7, 4096, 0, 4800, MaxDatagram - 65}
	var sent, kept [][]byte
	for i, n := range sizes {
		p := bytes.Repeat([]byte{byte(i + 1)}, n)
		if n > 0 {
			p[n-1] = byte(n) // distinct trailer so neighbours cannot alias unseen
		}
		if _, err := conn.Write(p); err != nil {
			t.Fatalf("send %d bytes: %v", n, err)
		}
		select {
		case q := <-got:
			kept = append(kept, q)
		case <-time.After(2 * time.Second):
			t.Fatalf("datagram %d (%d bytes) not delivered", i, n)
		}
		sent = append(sent, p)
	}
	for i, q := range kept {
		if !bytes.Equal(q, sent[i]) {
			t.Errorf("datagram %d (%d bytes) changed after later receives", i, sizes[i])
		}
		if cap(q) != len(q) {
			t.Errorf("datagram %d: cap %d, len %d; an append could overwrite its neighbour", i, cap(q), len(q))
		}
	}
}

// TestReceiveAllocationBudget pins what receiving costs: the read loop
// allocates only when a receive slab fills, not per datagram. 1,000
// datagrams of 300 B fill about five 64 KiB slabs; a per-datagram copy or
// sender address would cost at least 1,000 each.
func TestReceiveAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on the receive path")
	}
	const count, size, window = 1000, 300, 32
	book, err := LoopbackBook(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var received atomic.Int64
	ep, err := Listen(0, book, func([]byte) { received.Add(1) })
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()
	conn := dialer(t, book, 0)
	payload := make([]byte, size)

	lost := false
	burst := func() {
		start := received.Load()
		deadline := time.Now().Add(5 * time.Second)
		for sent := int64(0); sent < count; sent++ {
			// Keep at most window datagrams in flight so the socket buffer
			// never overflows and every datagram is read.
			for sent-(received.Load()-start) >= window && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			conn.Write(payload) //nolint:errcheck // a loss shows in the count below
		}
		for received.Load()-start < count && time.Now().Before(deadline) {
			runtime.Gosched()
		}
		if received.Load()-start < count {
			lost = true
		}
	}
	allocs := testing.AllocsPerRun(1, burst)
	if lost {
		t.Fatalf("datagrams lost on loopback: %d of %d arrived", received.Load(), 2*count)
	}
	if allocs > 20 {
		t.Errorf("%v allocations to receive %d datagrams of %d B, want at most 20", allocs, count, size)
	} else {
		t.Logf("%v allocations to receive %d datagrams of %d B", allocs, count, size)
	}
}
