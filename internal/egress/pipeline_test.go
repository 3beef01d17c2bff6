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

// discardTransport counts datagrams and keeps nothing, allocating nothing.
type discardTransport struct{ sent int }

func (t *discardTransport) Self() message.NodeID               { return 0 }
func (t *discardTransport) Send(message.NodeID, []byte)        { t.sent++ }
func (t *discardTransport) Multicast([]message.NodeID, []byte) { t.sent++ }
func (t *discardTransport) Close()                             {}

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
	// buffer never enters the stage's pool.
	ft := &fakeTransport{}
	s := &fakeSealer{}
	p := New(2, 0, s, ft)
	defer p.Close()
	raw := []byte{0xde, 0xad, 0xbe, 0xef, 0, 0, 0, 0}
	p.Send(1, commitMsg(7), Vector)
	p.SendRaw(2, raw)
	p.MulticastRaw([]message.NodeID{1, 2, 3}, raw)
	ft.mu.Lock()
	if len(ft.wires) != 3 {
		t.Fatalf("transport saw %d datagrams, want 3", len(ft.wires))
	}
	if binary.LittleEndian.Uint64(ft.wires[0]) != 7 {
		t.Fatalf("sealed send out of order: % x", ft.wires[0])
	}
	for i := 1; i < 3; i++ {
		if string(ft.wires[i]) != string(raw) {
			t.Fatalf("raw bytes modified in flight: % x", ft.wires[i])
		}
	}
	ft.mu.Unlock()
	if s.seals.Load() != 1 {
		t.Fatalf("sealer ran %d times, want 1", s.seals.Load())
	}
	// Drain what this goroutine can reach of the pool: the sealed send's
	// buffer, and raw if a raw send had put it there.
	for i := 0; i < 8; i++ {
		if w := wirePool.Get().(*wireBuf); cap(w.b) > 0 && &w.b[:1][0] == &raw[0] {
			t.Fatal("a raw send put the caller's buffer in the pool")
		}
	}
}

// TestWireBufferAllocationBudget checks that the stage reuses its wire
// buffer through a plain Transport: once warmed, a sealed multicast or
// send allocates nothing.
func TestWireBufferAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds entries at random under the race detector")
	}
	dt := &discardTransport{}
	p := New(0, 0, &fakeSealer{}, dt)
	defer p.Close()
	dsts := []message.NodeID{1, 2, 3}
	m := commitMsg(1)
	for i := 0; i < 10; i++ {
		p.Multicast(dsts, m, Vector)
	}
	if got := testing.AllocsPerRun(200, func() { p.Multicast(dsts, m, Vector) }); got != 0 {
		t.Errorf("%v allocs per sealed multicast, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() { p.Send(1, m, Point) }); got != 0 {
		t.Errorf("%v allocs per sealed send, want 0", got)
	}
	if dt.sent != 10+2*201 {
		t.Fatalf("transport saw %d datagrams, want %d", dt.sent, 10+2*201)
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
