package pbft

import (
	"fmt"
	"path/filepath"
	"sync"

	"repro/internal/message"
	"repro/internal/simnet"
	"repro/internal/statemachine"
)

// Cluster wires n replicas and any number of clients onto one network. It
// exists so the engine's tests share one setup path; everything outside this
// package builds clusters with bft.NewCluster.
type Cluster struct {
	Net      *simnet.Network
	Dir      *Directory
	Replicas []*Replica

	template  Config
	svc       func(*statemachine.Region) statemachine.Service
	behaviors map[message.NodeID]Behavior

	mu         sync.Mutex
	clients    []*Client
	nextClient message.NodeID
	ownsNet    bool
}

// NewCluster builds n replicas from the template config (ID/N are filled
// in), each with its own service instance from svc. behaviors, when non-nil,
// overrides the fault personality per replica.
func NewCluster(net *simnet.Network, template Config, n int,
	svc func(*statemachine.Region) statemachine.Service,
	behaviors map[message.NodeID]Behavior) *Cluster {

	template.N = n
	template.Validate()
	c := &Cluster{
		Net:        net,
		Dir:        NewDirectory(n),
		template:   template,
		svc:        svc,
		behaviors:  behaviors,
		nextClient: message.ClientIDBase,
	}
	for i := 0; i < n; i++ {
		c.Replicas = append(c.Replicas, NewReplica(c.replicaConfig(i), c.Dir, net, svc))
	}
	return c
}

// replicaConfig derives replica i's config from the template: ID, fault
// personality, and — when the template names a WAL directory — a private
// per-replica subdirectory (replicas must never share a log).
func (c *Cluster) replicaConfig(i int) Config {
	cfg := c.template
	cfg.ID = message.NodeID(i)
	if c.behaviors != nil {
		if b, ok := c.behaviors[cfg.ID]; ok {
			cfg.Behavior = b
		}
	}
	if cfg.WALDir != "" {
		cfg.WALDir = filepath.Join(cfg.WALDir, fmt.Sprintf("r%d", i))
	}
	return cfg
}

// NewLocalCluster creates a zero-latency in-process cluster (the common
// configuration for tests and micro-benchmarks).
func NewLocalCluster(n int, template Config,
	svc func(*statemachine.Region) statemachine.Service,
	behaviors map[message.NodeID]Behavior) *Cluster {
	net := simnet.New(simnet.WithSeed(template.Seed + 7))
	c := NewCluster(net, template, n, svc, behaviors)
	c.ownsNet = true
	return c
}

// Start launches every replica.
func (c *Cluster) Start() {
	for _, r := range c.Replicas {
		r.Start()
	}
}

// Stop stops replicas and clients and, if the cluster owns the network,
// shuts it down.
func (c *Cluster) Stop() {
	for _, r := range c.Replicas {
		r.Stop()
	}
	c.mu.Lock()
	clients := c.clients
	c.clients = nil
	c.mu.Unlock()
	for _, cl := range clients {
		cl.Close()
	}
	if c.ownsNet {
		c.Net.Close()
	}
}

// NewClient attaches a fresh client to the cluster.
func (c *Cluster) NewClient() *Client {
	c.mu.Lock()
	id := c.nextClient
	c.nextClient++
	c.mu.Unlock()
	cl := NewClient(id, c.Dir, c.Net, c.template.Mode, c.template.Opt)
	c.mu.Lock()
	c.clients = append(c.clients, cl)
	c.mu.Unlock()
	return cl
}

// Kill crashes replica i without flushing: pending WAL frames are abandoned
// exactly as a power failure would abandon them. The replica stops sending
// and receiving; the rest of the cluster keeps running.
func (c *Cluster) Kill(i int) {
	c.Replicas[i].Kill()
}

// Restart replaces a stopped or killed replica i with a fresh instance built
// from the same per-replica config. With a WAL directory configured the new
// instance replays its durable log before rejoining; without one it comes
// back empty and relies on state transfer. The replica is started before
// Restart returns.
func (c *Cluster) Restart(i int) *Replica {
	r := NewReplica(c.replicaConfig(i), c.Dir, c.Net, c.svc)
	c.Replicas[i] = r
	r.Start()
	return r
}

// Replica returns replica i.
func (c *Cluster) Replica(i int) *Replica { return c.Replicas[i] }

// N returns the group size.
func (c *Cluster) N() int { return len(c.Replicas) }

// F returns the fault threshold.
func (c *Cluster) F() int { return (len(c.Replicas) - 1) / 3 }
