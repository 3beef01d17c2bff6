package bft

import (
	"sync"

	"repro/internal/quorum"
)

// ClusterOption configures NewCluster beyond Options.
type ClusterOption func(*clusterConfig)

type clusterConfig struct {
	behaviors map[int]Behavior
}

// WithBehavior gives replica i a fault-injection personality.
func WithBehavior(i int, b Behavior) ClusterOption {
	return func(c *clusterConfig) {
		if c.behaviors == nil {
			c.behaviors = make(map[int]Behavior)
		}
		c.behaviors[i] = b
	}
}

// Cluster is a convenience over the per-node API: it constructs
// opts.Replicas replicas on a fresh simulated network it owns and hands
// out clients and pools with sequential principal ids. Everything it does
// can be done with NewReplica/NewClient directly.
type Cluster struct {
	opts      Options
	svc       ServiceFactory
	behaviors map[int]Behavior
	net       *SimNet
	replicas  []*Replica

	mu         sync.Mutex
	nextClient int
	closers    []func()
	stopped    bool
}

// NewCluster builds an in-process cluster of opts.Replicas replicas, each
// running its own instance of the service.
func NewCluster(opts Options, svc ServiceFactory, copts ...ClusterOption) *Cluster {
	var cc clusterConfig
	for _, o := range copts {
		o(&cc)
	}
	n := opts.engineConfig().N
	c := &Cluster{opts: opts, svc: svc, behaviors: cc.behaviors, net: SimNetwork(SimSeed(opts.Seed + 7))}
	for i := 0; i < n; i++ {
		c.replicas = append(c.replicas, NewReplica(i, c.replicaOptions(i), svc, c.net))
	}
	return c
}

// replicaOptions derives replica i's per-node options from the cluster's.
func (c *Cluster) replicaOptions(i int) Options {
	ropts := c.opts
	// Options.Behavior is the per-node field for NewReplica; in a
	// cluster, personalities come from WithBehavior per index —
	// inheriting it here would silently make every replica faulty.
	ropts.Behavior = Correct
	if b, ok := c.behaviors[i]; ok {
		ropts.Behavior = b
	}
	return ropts
}

// Start launches every replica.
func (c *Cluster) Start() {
	for _, r := range c.replicas {
		r.Start()
	}
}

// Stop stops replicas and every client/pool the cluster handed out, and
// shuts the network down.
func (c *Cluster) Stop() {
	for _, r := range c.replicas {
		r.Stop()
	}
	c.mu.Lock()
	closers := c.closers
	c.closers = nil
	c.stopped = true
	c.mu.Unlock()
	for _, f := range closers {
		f()
	}
	c.net.Close()
}

// NewClient attaches a fresh client principal to the cluster. It panics
// after Stop — a stopped cluster's network is gone, so the client could
// only ever time out. (Construction stays under the lock so a racing Stop
// either sees the client in closers or happens-before its creation.)
func (c *Cluster) NewClient() *Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		panic("bft: NewClient on a stopped cluster")
	}
	k := c.nextClient
	c.nextClient++
	cl := NewClient(k, c.opts, c.net)
	c.closers = append(c.closers, cl.Close)
	return cl
}

// NewClientPool attaches a pool of k fresh client principals. Like
// NewClient, it panics after Stop.
func (c *Cluster) NewClientPool(k int) *ClientPool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopped {
		panic("bft: NewClientPool on a stopped cluster")
	}
	first := c.nextClient
	c.nextClient += k
	p := newClientPoolAt(first, k, c.opts, c.net)
	c.closers = append(c.closers, p.Close)
	return p
}

// Replica returns replica i's handle.
func (c *Cluster) Replica(i int) *Replica { return c.replicas[i] }

// Replicas returns the number of replicas n.
func (c *Cluster) Replicas() int { return len(c.replicas) }

// FaultTolerance returns f, the number of faulty replicas the group
// tolerates.
func (c *Cluster) FaultTolerance() int { return quorum.F(len(c.replicas)) }

// Recover triggers proactive recovery of replica i immediately.
func (c *Cluster) Recover(i int) { c.replicas[i].Recover() }

// Kill crashes replica i without flushing its write-ahead log (see
// Replica.Kill); the rest of the cluster keeps running.
func (c *Cluster) Kill(i int) { c.replicas[i].Kill() }

// Restart replaces a stopped or killed replica i with a fresh instance
// built from the same options. With Durable set the new instance replays
// its log from Dir before rejoining; the replica is started before
// Restart returns.
func (c *Cluster) Restart(i int) *Replica {
	r := NewReplica(i, c.replicaOptions(i), c.svc, c.net)
	c.replicas[i] = r
	r.Start()
	return r
}

// Partition splits the replicas into groups; replica-to-replica traffic
// crossing a group boundary is dropped until Heal. Clients keep reaching
// every replica.
func (c *Cluster) Partition(groups ...[]int) { c.net.Partition(groups...) }

// Isolate severs all traffic to and from replica i (clients included).
func (c *Cluster) Isolate(i int) { c.net.Isolate(i) }

// Heal removes every partition and isolation.
func (c *Cluster) Heal() { c.net.Heal() }
