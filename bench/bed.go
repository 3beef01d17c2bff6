package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/bft"
	"repro/bft/kv"
)

const (
	replicas = 4 // n = 3f+1 with f = 1
	faults   = 1
	// opTimeout bounds one Invoke; an operation that exceeds it is a
	// failure. The engine's own retry budget gives up at about the same
	// point.
	opTimeout = 20 * time.Second
)

// bed is one cluster plus its client principals, built through the public
// per-node API (bft.NewReplica / bft.NewClient) so a killed replica can be
// rebuilt with the same decorated service.
type bed struct {
	def      workloadDef
	opts     bft.Options
	net      bft.Network
	closeNet func()
	tap      *tap // nil when untraced
	clients  []*bft.Client
	walDir   string

	mu       sync.Mutex // guards replicas: restart swaps an element under load
	replicas []*bft.Replica
}

// replica returns the current instance of replica i.
func (b *bed) replica(i int) *bft.Replica {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.replicas[i]
}

// live returns the current instances. A killed one answers its accessors
// with zero values, which the callers' max and sum folds absorb.
func (b *bed) live() []*bft.Replica {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]*bft.Replica(nil), b.replicas...)
}

// newBed stands the workload's cluster up. Every bft.Options field the
// run shape does not name stays at its default.
func newBed(def workloadDef, seed int64, tmpDir string, traced bool, base time.Time) (b *bed, err error) {
	// A loopback port reserved by LoopbackUDP can be lost to another
	// process before the real bind, which surfaces as a panic at Attach.
	for attempt := 0; ; attempt++ {
		b, err = tryNewBed(def, seed, tmpDir, traced, base)
		if err == nil || def.Net != netUDP || attempt == 2 {
			return b, err
		}
	}
}

func tryNewBed(def workloadDef, seed int64, tmpDir string, traced bool, base time.Time) (b *bed, err error) {
	b = &bed{def: def}
	b.opts = bft.Options{
		Replicas:  replicas,
		Mode:      bft.BFT,
		StateSize: kv.MinStateSize + 128<<10,
		Seed:      seed,
	}
	if def.Durable {
		b.walDir, err = os.MkdirTemp(tmpDir, "wal-")
		if err != nil {
			return nil, fmt.Errorf("wal directory: %w", err)
		}
		b.opts.Durable = true
		b.opts.Dir = b.walDir
	}
	switch def.Net {
	case netSim:
		sim := bft.SimNetwork(bft.SimSeed(seed), bft.SimLinks(bft.LinkProfile{Latency: def.LinkDelay}))
		b.net, b.closeNet = sim, sim.Close
	case netUDP:
		udp, err := bft.LoopbackUDP(replicas, def.Clients)
		if err != nil {
			b.removeWAL()
			return nil, fmt.Errorf("loopback sockets: %w", err)
		}
		b.net, b.closeNet = udp, func() {}
	}
	if traced {
		b.tap = newTap(b.net, base)
		b.net = b.tap
	}
	defer func() {
		if p := recover(); p != nil {
			b.stop()
			b, err = nil, fmt.Errorf("cluster construction: %v", p)
		}
	}()
	for i := 0; i < replicas; i++ {
		b.replicas = append(b.replicas, b.newReplica(i))
	}
	for _, r := range b.replicas {
		r.Start()
	}
	for k := 0; k < def.Clients; k++ {
		b.clients = append(b.clients, bft.NewClient(k, b.opts, b.net))
	}
	return b, nil
}

func (b *bed) newReplica(i int) *bft.Replica {
	svc := bft.ServiceFactory(kv.Factory)
	if b.tap != nil {
		svc = b.tap.serviceFactory(i, svc)
	}
	return bft.NewReplica(i, b.opts, svc, b.net)
}

// restart replaces killed replica i with a fresh instance over the same
// options (and log directory, when durable) and starts it.
func (b *bed) restart(i int) {
	r := b.newReplica(i)
	b.mu.Lock()
	b.replicas[i] = r
	b.mu.Unlock()
	r.Start()
}

// stop tears everything down; Stop on a killed replica is a no-op.
func (b *bed) stop() {
	for _, c := range b.clients {
		c.Close()
	}
	for _, r := range b.live() {
		r.Stop()
	}
	if b.closeNet != nil {
		b.closeNet()
	}
	b.removeWAL()
}

func (b *bed) removeWAL() {
	if b.walDir != "" {
		// A leftover directory only wastes space under the build
		// directory; the run's numbers are already taken.
		_ = os.RemoveAll(b.walDir)
	}
}

// invoke runs one operation with the failure deadline applied.
func (b *bed) invoke(c *bft.Client, op []byte, readOnly bool) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	if readOnly {
		return c.Invoke(ctx, op, bft.ReadOnly)
	}
	return c.Invoke(ctx, op)
}

// tmpRoot is where WAL directories and probe files live: inside the
// checkout, under the build directory run.sh names.
func tmpRoot() (string, error) {
	dir := os.Getenv("BENCH_BUILD_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	dir = filepath.Join(dir, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return dir, nil
}
