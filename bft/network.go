package bft

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/message"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/udpnet"
)

// Network is the substrate replicas and clients attach to. The library
// ships two: SimNetwork (in-process simulation with fault injection) and
// UDPNetwork (real UDP sockets, one node per process if you like — §6.1).
// Any transport.Network implementation works, so tests can supply their
// own.
type Network = transport.Network

// LinkProfile models one direction of a link in the simulated network.
type LinkProfile struct {
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

func (p LinkProfile) toSim() simnet.LinkConfig {
	return simnet.LinkConfig{
		Latency:     p.Latency,
		Jitter:      p.Jitter,
		BytesPerSec: p.BytesPerSec,
		LossRate:    p.LossRate,
		DupRate:     p.DupRate,
	}
}

// SimOption configures a SimNetwork.
type SimOption func(*simConfig)

type simConfig struct {
	seed    int64
	profile LinkProfile
}

// SimSeed seeds the network PRNG for reproducible loss/jitter draws.
func SimSeed(seed int64) SimOption {
	return func(c *simConfig) { c.seed = seed }
}

// SimLinks sets the default link profile for every link.
func SimLinks(p LinkProfile) SimOption {
	return func(c *simConfig) { c.profile = p }
}

// SimNet is the in-process simulated network: messages may be delayed,
// dropped, duplicated, or reordered per the configured link profiles, and
// the typed fault-injection surface (Partition, Isolate, Heal) models the
// scenarios of §2.4.2. It implements Network.
type SimNet struct {
	inner *simnet.Network

	mu       sync.Mutex
	replicas map[int]struct{} // replica ids seen in Attach
}

var _ Network = (*SimNet)(nil)

// SimNetwork builds a simulated network.
func SimNetwork(opts ...SimOption) *SimNet {
	var c simConfig
	c.seed = 1
	for _, o := range opts {
		o(&c)
	}
	return &SimNet{
		inner: simnet.New(
			simnet.WithSeed(c.seed),
			simnet.WithDefaults(c.profile.toSim()),
		),
		replicas: make(map[int]struct{}),
	}
}

// Attach implements Network.
func (s *SimNet) Attach(id message.NodeID, h transport.Handler) transport.Transport {
	if !id.IsClient() {
		s.mu.Lock()
		s.replicas[int(id)] = struct{}{}
		s.mu.Unlock()
	}
	return s.inner.Attach(id, h)
}

// Partition splits the REPLICAS into groups: replica-to-replica traffic
// crossing a group boundary (or touching a replica in no group) is dropped
// until Heal. Clients keep reaching every replica — a partition separates
// the service's machines, not its users.
func (s *SimNet) Partition(groups ...[]int) {
	members := make(map[int]int)
	for gi, g := range groups {
		for _, r := range g {
			members[r] = gi
		}
	}
	s.mu.Lock()
	all := make([]int, 0, len(s.replicas))
	for r := range s.replicas {
		all = append(all, r)
	}
	s.mu.Unlock()
	for _, r := range all {
		if _, ok := members[r]; !ok {
			members[r] = -1 // attached but in no group: cut from every group
		}
	}
	ids := make([]int, 0, len(members))
	for r := range members {
		ids = append(ids, r)
	}
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			if members[a] != members[b] || members[a] == -1 {
				s.inner.Block(message.NodeID(a), message.NodeID(b))
			}
		}
	}
}

// Isolate severs all traffic to and from replica r (clients included).
func (s *SimNet) Isolate(r int) { s.inner.Isolate(message.NodeID(r)) }

// Heal removes every partition and isolation.
func (s *SimNet) Heal() { s.inner.Heal() }

// Stats returns network-wide datagram counters.
func (s *SimNet) Stats() (sent, dropped uint64) {
	st := s.inner.Stats()
	return st.MsgsSent, st.MsgsDropped + st.MsgsOverflow
}

// Close shuts the simulated network down.
func (s *SimNet) Close() { s.inner.Close() }

// UDPNet is a Network over real UDP sockets: each principal binds the
// address the shared address book assigns it, exactly like the thesis's
// deployment (§6.1). Every process of a multi-process cluster constructs
// the SAME UDPNet configuration and attaches only its own node(s).
type UDPNet struct {
	inner *udpnet.Network
}

var _ Network = (*UDPNet)(nil)

// UDPNetwork builds a UDP address book: replicaAddrs[i] is replica i's
// host:port, clientAddrs[k] is client principal k's (replies are datagrams
// too, so clients need addresses replicas can reach). Addresses are
// resolved eagerly; a bad one fails construction.
func UDPNetwork(replicaAddrs, clientAddrs []string) (*UDPNet, error) {
	book := udpnet.NewAddressBook()
	for i, a := range replicaAddrs {
		if err := book.Set(message.NodeID(i), a); err != nil {
			return nil, fmt.Errorf("bft: replica %d: %w", i, err)
		}
	}
	for k, a := range clientAddrs {
		if err := book.Set(message.ClientIDBase+message.NodeID(k), a); err != nil {
			return nil, fmt.Errorf("bft: client %d: %w", k, err)
		}
	}
	return &UDPNet{inner: udpnet.NewNetwork(book)}, nil
}

// LoopbackUDP builds a UDPNetwork on 127.0.0.1 with kernel-chosen free
// ports for the given number of replicas and clients — the quickest way to
// stand up a real-sockets cluster in one process (tests, demos).
func LoopbackUDP(replicas, clients int) (*UDPNet, error) {
	book, err := udpnet.LoopbackBook(replicas, clients)
	if err != nil {
		return nil, err
	}
	return &UDPNet{inner: udpnet.NewNetwork(book)}, nil
}

// Attach implements Network.
func (u *UDPNet) Attach(id message.NodeID, h transport.Handler) transport.Transport {
	return u.inner.Attach(id, h)
}
