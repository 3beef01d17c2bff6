package egress

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/message"
	"repro/internal/transport"
)

// fakeTransport records every transmitted datagram in arrival order.
type fakeTransport struct {
	mu    sync.Mutex
	wires [][]byte
	dsts  []message.NodeID
}

func (t *fakeTransport) Self() message.NodeID { return 0 }
func (t *fakeTransport) Send(dst message.NodeID, p []byte) {
	t.mu.Lock()
	t.wires = append(t.wires, append([]byte(nil), p...))
	t.dsts = append(t.dsts, dst)
	t.mu.Unlock()
}
func (t *fakeTransport) Multicast(dsts []message.NodeID, p []byte) {
	t.mu.Lock()
	t.wires = append(t.wires, append([]byte(nil), p...))
	t.dsts = append(t.dsts, message.NoNode)
	t.mu.Unlock()
}
func (t *fakeTransport) Close() {}

func (t *fakeTransport) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.wires)
}

// ownedTransport additionally implements transport.Multicaster, releasing
// every buffer immediately (udpnet's behavior).
type ownedTransport struct {
	fakeTransport
	released atomic.Uint64
}

func (t *ownedTransport) MulticastOwned(dsts []message.NodeID, p []byte, release func([]byte)) {
	t.Multicast(dsts, p)
	if release != nil {
		release(p)
		t.released.Add(1)
	}
}

func (t *ownedTransport) SendOwned(dst message.NodeID, p []byte, release func([]byte)) {
	t.Send(dst, p)
	if release != nil {
		release(p)
		t.released.Add(1)
	}
}

// fakeSealer encodes a Commit's sequence number as the wire bytes.
type fakeSealer struct{ seals atomic.Uint64 }

func (s *fakeSealer) Seal(buf []byte, kind Kind, dst message.NodeID,
	m message.Message) ([]byte, uint64) {
	s.seals.Add(1)
	return binary.LittleEndian.AppendUint64(buf, uint64(m.(*message.Commit).Seq)), 0
}

func commitMsg(seq uint64) *message.Commit { return &message.Commit{Seq: message.Seq(seq)} }

func TestEgressOrderPreserved(t *testing.T) {
	// Each send is sealed and handed to the transport before it returns,
	// so the transport sees the exact call order.
	const n = 500
	ft := &fakeTransport{}
	p := New(4, 0, &fakeSealer{}, ft)
	defer p.Close()
	for i := 0; i < n; i++ {
		if !p.Send(1, commitMsg(uint64(i)), Vector) {
			t.Fatalf("send %d refused", i)
		}
		if ft.count() != i+1 {
			t.Fatalf("send %d returned before reaching the transport", i)
		}
	}
	ft.mu.Lock()
	defer ft.mu.Unlock()
	for i, w := range ft.wires {
		if got := binary.LittleEndian.Uint64(w); got != uint64(i) {
			t.Fatalf("send %d carried seq %d: order not preserved", i, got)
		}
	}
	if st := p.Stats(); st.Rejected != 0 {
		t.Fatalf("stats %+v", st)
	}
}

func TestEgressRawBypassesSealer(t *testing.T) {
	// Raw sends carry pre-encoded bytes: the sealer must never run, the
	// bytes arrive untouched, ordered with sealed traffic, and the caller's
	// buffer is never released into the stage's pool.
	ot := &ownedTransport{}
	s := &fakeSealer{}
	p := New(2, 0, s, ot)
	defer p.Close()
	raw := []byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0}
	p.Send(1, commitMsg(7), Vector)
	p.SendRaw(2, raw)
	p.MulticastRaw([]message.NodeID{1, 2, 3}, raw)
	ot.mu.Lock()
	defer ot.mu.Unlock()
	if len(ot.wires) != 3 {
		t.Fatalf("transport saw %d datagrams, want 3", len(ot.wires))
	}
	if binary.LittleEndian.Uint64(ot.wires[0]) != 7 {
		t.Fatalf("sealed send out of order: % x", ot.wires[0])
	}
	for i := 1; i < 3; i++ {
		if string(ot.wires[i]) != string(raw) {
			t.Fatalf("raw bytes modified in flight: % x", ot.wires[i])
		}
	}
	if s.seals.Load() != 1 {
		t.Fatalf("sealer ran %d times, want 1", s.seals.Load())
	}
	if got := ot.released.Load(); got != 1 {
		t.Fatalf("released %d buffers, want only the sealed one", got)
	}
}

func TestEgressUsesOwnedSurface(t *testing.T) {
	// A transport implementing Multicaster receives buffers through the
	// owned surface and its releases recycle them.
	ot := &ownedTransport{}
	p := New(1, 0, &fakeSealer{}, ot)
	defer p.Close()
	const n = 20
	for i := 0; i < n; i++ {
		p.Multicast([]message.NodeID{1, 2, 3}, commitMsg(uint64(i)), Vector)
	}
	if got := ot.count(); got != n {
		t.Fatalf("transport saw %d multicasts, want %d", got, n)
	}
	if got := ot.released.Load(); got != n {
		t.Fatalf("released %d buffers, want %d", got, n)
	}
}

func TestEgressCloseStopsTransmission(t *testing.T) {
	ft := &fakeTransport{}
	p := New(2, 0, &fakeSealer{}, ft)
	p.Send(1, commitMsg(1), Vector)
	p.Close()
	if p.Send(1, commitMsg(2), Vector) || p.SendRaw(1, []byte{1}) {
		t.Fatal("send accepted after Close")
	}
	if got := ft.count(); got != 1 {
		t.Fatalf("transport saw %d datagrams, want only the one before Close", got)
	}
	if st := p.Stats(); st.Rejected != 2 {
		t.Fatalf("Rejected = %d, want the 2 sends refused after Close", st.Rejected)
	}
	var _ transport.Transport = ft // the fake really is a Transport
}
