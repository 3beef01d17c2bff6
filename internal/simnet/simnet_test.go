package simnet

import (
	"fmt"
	"repro/internal/transport"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/message"
)

// collector gathers payloads delivered to an endpoint.
type collector struct {
	mu   sync.Mutex
	got  [][]byte
	seen chan struct{}
}

func newCollector() *collector {
	return &collector{seen: make(chan struct{}, 1024)}
}

func (c *collector) handler(p []byte) {
	c.mu.Lock()
	c.got = append(c.got, p)
	c.mu.Unlock()
	c.seen <- struct{}{}
}

func (c *collector) wait(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for i := 0; i < n; i++ {
		select {
		case <-c.seen:
		case <-deadline:
			t.Fatalf("timed out waiting for delivery %d/%d", i+1, n)
		}
	}
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func TestBasicDelivery(t *testing.T) {
	n := New(WithSeed(1))
	defer n.Close()
	c := newCollector()
	a := n.Attach(0, func([]byte) {})
	n.Attach(1, c.handler)
	a.Send(1, []byte("hello"))
	c.wait(t, 1, time.Second)
	if string(c.got[0]) != "hello" {
		t.Fatalf("got %q", c.got[0])
	}
}

func TestMulticastSkipsSelf(t *testing.T) {
	n := New(WithSeed(1))
	defer n.Close()
	self := newCollector()
	c1, c2 := newCollector(), newCollector()
	a := n.Attach(0, self.handler)
	n.Attach(1, c1.handler)
	n.Attach(2, c2.handler)
	a.Multicast([]message.NodeID{0, 1, 2}, []byte("m"))
	c1.wait(t, 1, time.Second)
	c2.wait(t, 1, time.Second)
	time.Sleep(20 * time.Millisecond)
	if self.count() != 0 {
		t.Fatal("multicast delivered to self")
	}
}

func TestLatencyDelaysDelivery(t *testing.T) {
	n := New(WithSeed(1), WithDefaults(LinkConfig{Latency: 30 * time.Millisecond}))
	defer n.Close()
	c := newCollector()
	a := n.Attach(0, func([]byte) {})
	n.Attach(1, c.handler)
	start := time.Now()
	a.Send(1, []byte("x"))
	c.wait(t, 1, time.Second)
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("delivered after %v, want >= ~30ms", el)
	}
}

func TestOrderingPreservedAtEqualDelay(t *testing.T) {
	n := New(WithSeed(1), WithDefaults(LinkConfig{Latency: 5 * time.Millisecond}))
	defer n.Close()
	c := newCollector()
	a := n.Attach(0, func([]byte) {})
	n.Attach(1, c.handler)
	for i := 0; i < 20; i++ {
		a.Send(1, []byte{byte(i)})
	}
	c.wait(t, 20, 2*time.Second)
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, p := range c.got {
		if p[0] != byte(i) {
			t.Fatalf("message %d out of order (got %d)", i, p[0])
		}
	}
}

func TestLossRateDropsEverything(t *testing.T) {
	n := New(WithSeed(1), WithDefaults(LinkConfig{LossRate: 1.0}))
	defer n.Close()
	c := newCollector()
	a := n.Attach(0, func([]byte) {})
	n.Attach(1, c.handler)
	for i := 0; i < 10; i++ {
		a.Send(1, []byte("x"))
	}
	time.Sleep(30 * time.Millisecond)
	if c.count() != 0 {
		t.Fatal("lossy link delivered")
	}
	if s := n.Stats(); s.MsgsDropped != 10 {
		t.Fatalf("dropped = %d, want 10", s.MsgsDropped)
	}
}

func TestDuplication(t *testing.T) {
	n := New(WithSeed(1), WithDefaults(LinkConfig{DupRate: 1.0, Latency: time.Millisecond}))
	defer n.Close()
	c := newCollector()
	a := n.Attach(0, func([]byte) {})
	n.Attach(1, c.handler)
	a.Send(1, []byte("x"))
	c.wait(t, 2, time.Second)
	if c.count() != 2 {
		t.Fatalf("got %d copies, want 2", c.count())
	}
}

func TestBlockAndUnblock(t *testing.T) {
	n := New(WithSeed(1))
	defer n.Close()
	c := newCollector()
	a := n.Attach(0, func([]byte) {})
	n.Attach(1, c.handler)
	n.Block(0, 1)
	a.Send(1, []byte("x"))
	time.Sleep(20 * time.Millisecond)
	if c.count() != 0 {
		t.Fatal("blocked link delivered")
	}
	n.Heal()
	a.Send(1, []byte("y"))
	c.wait(t, 1, time.Second)
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(WithSeed(1))
	defer n.Close()
	cs := make([]*collector, 4)
	ts := make([]transport.Transport, 4)
	for i := range cs {
		cs[i] = newCollector()
		ts[i] = n.Attach(message.NodeID(i), cs[i].handler)
	}
	n.Partition([]message.NodeID{0, 1}, []message.NodeID{2, 3})
	ts[0].Send(1, []byte("in-group"))
	ts[0].Send(2, []byte("cross-group"))
	cs[1].wait(t, 1, time.Second)
	time.Sleep(20 * time.Millisecond)
	if cs[2].count() != 0 {
		t.Fatal("cross-partition traffic delivered")
	}
	n.Heal()
	ts[0].Send(2, []byte("after-heal"))
	cs[2].wait(t, 1, time.Second)
}

func TestIsolate(t *testing.T) {
	n := New(WithSeed(1))
	defer n.Close()
	c0, c1, c2 := newCollector(), newCollector(), newCollector()
	t0 := n.Attach(0, c0.handler)
	t1 := n.Attach(1, c1.handler)
	n.Attach(2, c2.handler)
	n.Isolate(0)
	t0.Send(1, []byte("out"))
	t1.Send(0, []byte("in"))
	t1.Send(2, []byte("bystander"))
	c2.wait(t, 1, time.Second)
	time.Sleep(20 * time.Millisecond)
	if c0.count() != 0 || c1.count() != 0 {
		t.Fatal("isolated node exchanged traffic")
	}
}

func TestFilterModifiesAndDrops(t *testing.T) {
	n := New(WithSeed(1))
	defer n.Close()
	c := newCollector()
	a := n.Attach(0, func([]byte) {})
	n.Attach(1, c.handler)
	var dropped atomic.Int32
	n.SetFilter(func(src, dst message.NodeID, p []byte) ([]byte, bool) {
		if p[0] == 'd' {
			dropped.Add(1)
			return nil, false
		}
		out := append([]byte("mod:"), p...)
		return out, true
	})
	a.Send(1, []byte("drop-me"))
	a.Send(1, []byte("keep"))
	c.wait(t, 1, time.Second)
	if string(c.got[0]) != "mod:keep" {
		t.Fatalf("got %q", c.got[0])
	}
	if dropped.Load() != 1 {
		t.Fatal("filter drop not applied")
	}
	n.SetFilter(nil)
	a.Send(1, []byte("plain"))
	c.wait(t, 1, time.Second)
}

func TestBandwidthModel(t *testing.T) {
	// 1 MB/s: a 100 KB payload should take ~100 ms.
	n := New(WithSeed(1), WithDefaults(LinkConfig{BytesPerSec: 1 << 20}))
	defer n.Close()
	c := newCollector()
	a := n.Attach(0, func([]byte) {})
	n.Attach(1, c.handler)
	start := time.Now()
	a.Send(1, make([]byte, 100<<10))
	c.wait(t, 1, 2*time.Second)
	if el := time.Since(start); el < 60*time.Millisecond {
		t.Fatalf("100KB at 1MB/s arrived in %v", el)
	}
}

func TestSendToUnknownDoesNotPanic(t *testing.T) {
	n := New(WithSeed(1))
	defer n.Close()
	a := n.Attach(0, func([]byte) {})
	a.Send(42, []byte("void"))
	if s := n.Stats(); s.MsgsDropped != 1 {
		t.Fatalf("dropped = %d", s.MsgsDropped)
	}
}

func TestCloseEndpointStopsDelivery(t *testing.T) {
	n := New(WithSeed(1))
	defer n.Close()
	c := newCollector()
	a := n.Attach(0, func([]byte) {})
	ep := n.Attach(1, c.handler)
	ep.Close()
	a.Send(1, []byte("x"))
	time.Sleep(20 * time.Millisecond)
	if c.count() != 0 {
		t.Fatal("closed endpoint received")
	}
}

func TestStatsCounters(t *testing.T) {
	n := New(WithSeed(1))
	defer n.Close()
	c := newCollector()
	a := n.Attach(0, func([]byte) {})
	n.Attach(1, c.handler)
	a.Send(1, make([]byte, 100))
	c.wait(t, 1, time.Second)
	s := n.Stats()
	if s.MsgsSent != 1 || s.BytesSent != 100 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConcurrentSendersNoRace(t *testing.T) {
	n := New(WithSeed(1), WithDefaults(LinkConfig{Latency: time.Millisecond, Jitter: time.Millisecond}))
	defer n.Close()
	c := newCollector()
	n.Attach(9, c.handler)
	var wg sync.WaitGroup
	const senders, each = 8, 50
	for i := 0; i < senders; i++ {
		tr := n.Attach(message.NodeID(i), func([]byte) {})
		wg.Add(1)
		go func(tr transport.Transport) {
			defer wg.Done()
			for j := 0; j < each; j++ {
				tr.Send(9, []byte{1})
			}
		}(tr)
	}
	wg.Wait()
	c.wait(t, senders*each, 5*time.Second)
}

// TestSenderBufferReusableAfterSend checks that Send and Multicast keep
// nothing of the caller's buffer, as udpnet does: the sender overwrites the
// buffer as soon as the call returns, and every receiver and a recording
// filter still see the bytes that were sent.
func TestSenderBufferReusableAfterSend(t *testing.T) {
	for _, latency := range []time.Duration{0, time.Millisecond} {
		for _, form := range []string{"Send", "Multicast"} {
			t.Run(fmt.Sprintf("%s/%v", form, latency), func(t *testing.T) {
				n := New(WithSeed(1), WithDefaults(LinkConfig{Latency: latency}))
				defer n.Close()
				var mu sync.Mutex
				var filtered [][]byte
				n.SetFilter(func(_, _ message.NodeID, p []byte) ([]byte, bool) {
					mu.Lock()
					filtered = append(filtered, p)
					mu.Unlock()
					return p, true
				})
				a := n.Attach(0, func([]byte) {})
				cs := []*collector{newCollector(), newCollector(), newCollector()}
				for i, c := range cs {
					n.Attach(message.NodeID(i+1), c.handler)
				}
				dsts := []message.NodeID{0, 1, 2, 3}
				if form == "Send" {
					cs = cs[:1]
				}

				const rounds = 10
				buf := make([]byte, 100)
				for r := 0; r < rounds; r++ {
					for i := range buf {
						buf[i] = byte(r)
					}
					if form == "Send" {
						a.Send(1, buf)
					} else {
						a.Multicast(dsts, buf)
					}
					for i := range buf {
						buf[i] = 0xFF
					}
				}

				// roundOf is the round whose bytes p carries, or -1.
				roundOf := func(p []byte) int {
					if len(p) != len(buf) {
						return -1
					}
					for _, b := range p[1:] {
						if b != p[0] {
							return -1
						}
					}
					if p[0] >= rounds {
						return -1
					}
					return int(p[0])
				}
				for i, c := range cs {
					c.wait(t, rounds, time.Second)
					c.mu.Lock()
					for r, p := range c.got {
						if roundOf(p) != r {
							t.Errorf("receiver %d, datagram %d: got % x, want %d bytes of %d", i+1, r, p[:4], len(buf), r)
						}
					}
					c.mu.Unlock()
				}
				mu.Lock()
				defer mu.Unlock()
				if len(filtered) != rounds*len(cs) {
					t.Fatalf("filter saw %d datagrams, want %d", len(filtered), rounds*len(cs))
				}
				for i, p := range filtered {
					if roundOf(p) != i/len(cs) {
						t.Errorf("filtered datagram %d: got % x, want %d bytes of %d", i, p[:4], len(buf), i/len(cs))
					}
				}
			})
		}
	}
}

// TestSimnetAllocationBudget pins what sending costs once the endpoint's
// send slab and the scheduler's delivery heap have warmed: nothing per
// call, delivered at once or delayed. Slab refills are amortized over the
// hundreds of datagrams one slab holds.
func TestSimnetAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, latency := range []time.Duration{0, time.Millisecond} {
		n := New(WithSeed(1), WithDefaults(LinkConfig{Latency: latency}))
		var delivered atomic.Int64
		a := n.Attach(0, func([]byte) {})
		for id := message.NodeID(1); id <= 3; id++ {
			n.Attach(id, func([]byte) { delivered.Add(1) })
		}
		dsts := []message.NodeID{1, 2, 3}
		payload := make([]byte, 200)
		step := func() {
			a.Multicast(dsts, payload)
			a.Send(1, payload)
		}
		drain := func(want int64) {
			deadline := time.Now().Add(5 * time.Second)
			for delivered.Load() < want {
				if time.Now().After(deadline) {
					t.Fatalf("latency %v: %d of %d datagrams delivered", latency, delivered.Load(), want)
				}
				time.Sleep(time.Millisecond)
			}
		}
		const runs = 1000
		for i := 0; i < 2*runs; i++ {
			step()
		}
		drain(2 * runs * 4)
		got := testing.AllocsPerRun(runs, step)
		drain((3*runs + 1) * 4)
		n.Close()
		if got != 0 {
			t.Errorf("latency %v: %v allocs per multicast and send, want 0", latency, got)
		} else {
			t.Logf("latency %v: %v allocs per multicast and send", latency, got)
		}
	}
}

// TestSendLoopMatchesMulticast pins that a multicast is priced exactly
// like a loop of sends to the same destinations: two networks with the
// same seed and link model, one driven by Send and one by Multicast,
// deliver the same datagrams, duplicates included, to every receiver in
// the same order, call the filter with the same arguments in the same
// order, and count the same Stats.
func TestSendLoopMatchesMulticast(t *testing.T) {
	type call struct {
		src, dst message.NodeID
		round    byte
	}
	type outcome struct {
		got      [][]byte
		filtered []call
		stats    Stats
	}
	dsts := []message.NodeID{1, 2, 3, 4}
	const rounds = 200
	run := func(multicast bool) outcome {
		n := New(WithSeed(7), WithDefaults(LinkConfig{LossRate: 0.2, DupRate: 0.3}))
		defer n.Close()
		var out outcome
		var mu sync.Mutex
		n.SetFilter(func(src, dst message.NodeID, p []byte) ([]byte, bool) {
			mu.Lock()
			out.filtered = append(out.filtered, call{src, dst, p[0]})
			mu.Unlock()
			// Drop a deterministic tenth of the traffic in the filter.
			return p, (int(p[0])+int(dst))%10 != 0
		})
		a := n.Attach(0, func([]byte) {})
		cs := make([]*collector, len(dsts))
		for i, d := range dsts {
			cs[i] = newCollector()
			n.Attach(d, cs[i].handler)
		}
		for r := 0; r < rounds; r++ {
			payload := []byte{byte(r), 0xAB}
			if multicast {
				a.Multicast(dsts, payload)
			} else {
				for _, d := range dsts {
					a.Send(d, payload)
				}
			}
		}
		out.stats = n.Stats()
		// A lossless, unfiltered end marker flushes each receiver's queue:
		// once it arrives, everything sent before it has been handled.
		n.SetFilter(nil)
		n.SetDefaults(LinkConfig{})
		for i, d := range dsts {
			a.Send(d, []byte{0xFF, 0xFF, 0xFF})
			for {
				cs[i].wait(t, 1, 5*time.Second)
				cs[i].mu.Lock()
				last := cs[i].got[len(cs[i].got)-1]
				cs[i].mu.Unlock()
				if len(last) == 3 {
					break
				}
			}
		}
		for _, c := range cs {
			c.mu.Lock()
			c.got = c.got[:len(c.got)-1]
			var all []byte
			for _, p := range c.got {
				all = append(all, p...)
			}
			out.got = append(out.got, all)
			c.mu.Unlock()
		}
		return out
	}
	sends, mcast := run(false), run(true)
	if sends.stats != mcast.stats {
		t.Fatalf("stats differ: send loop %+v, multicast %+v", sends.stats, mcast.stats)
	}
	if sends.stats.MsgsSent != rounds*uint64(len(dsts)) || sends.stats.MsgsDropped == 0 {
		t.Fatalf("stats %+v: want %d sent and some dropped", sends.stats, rounds*len(dsts))
	}
	if len(sends.filtered) != len(mcast.filtered) {
		t.Fatalf("filter saw %d datagrams from the send loop, %d from multicast", len(sends.filtered), len(mcast.filtered))
	}
	for i := range sends.filtered {
		if sends.filtered[i] != mcast.filtered[i] {
			t.Fatalf("filter call %d: send loop %+v, multicast %+v", i, sends.filtered[i], mcast.filtered[i])
		}
	}
	delivered, dups := 0, 0
	for i, d := range dsts {
		if string(sends.got[i]) != string(mcast.got[i]) {
			t.Fatalf("receiver %d: send loop delivered % x, multicast % x", d, sends.got[i], mcast.got[i])
		}
		seen := make(map[byte]bool)
		for j := 0; j < len(sends.got[i]); j += 2 {
			delivered++
			if seen[sends.got[i][j]] {
				dups++
			}
			seen[sends.got[i][j]] = true
		}
	}
	if dups == 0 || delivered == 0 {
		t.Fatalf("%d delivered, %d duplicates: the link model was not exercised", delivered, dups)
	}
}
