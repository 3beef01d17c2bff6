// Package transport defines the datagram abstractions every network
// substrate implements: the in-process simulator (internal/simnet) and the
// real UDP transport (internal/udpnet). The protocol engine in internal/pbft
// is written purely against these interfaces, so the same replica code runs
// in simulation and across processes — the structure of §6.1 of Castro's
// thesis, where the replication library sits on an unreliable point-to-point
// datagram service.
//
// A Network hands each principal a Transport (its sending half) and invokes
// its Handler serially, in arrival order, for each inbound datagram, on one
// receive goroutine per endpoint. The engine decodes and authenticates each
// datagram right there (internal/ingress), so that goroutine's delivery
// order is the order the protocol sees; the engine's sends are sealed on
// the sending goroutine and handed straight to the Transport
// (internal/egress).
package transport

import "repro/internal/message"

// Handler consumes one raw datagram delivered to an endpoint. A Network
// invokes it from a single goroutine per endpoint, in arrival order; while
// it runs, later datagrams wait in the receive queue (exactly like a UDP
// socket buffer), so it must not block.
//
// The handler owns payload: the network never writes it afterwards, so a
// decoded message may keep views of it for as long as it likes (see
// internal/message). udpnet copies each datagram out of its read buffer.
// simnet may hand one buffer to every receiver of a multicast, so handlers
// only read what they are given.
type Handler func(payload []byte)

// Transport is the sending half an endpoint uses.
type Transport interface {
	// Self returns this endpoint's principal id.
	Self() message.NodeID
	// Send transmits one datagram to dst.
	//
	// bftlint:send
	Send(dst message.NodeID, payload []byte)
	// Multicast transmits one datagram to every id in dsts.
	//
	// bftlint:send
	Multicast(dsts []message.NodeID, payload []byte)
	// Close detaches the endpoint.
	Close()
}

// Multicaster is an optional Transport extension for the egress stage:
// a batched, ownership-transferring send surface. A substrate that
// implements it can coalesce the n per-replica datagrams of one multicast
// into a single submission (one lock round in the simulator, one tight
// syscall loop over one buffer in udpnet) instead of n independent sends.
//
// Ownership: the caller must not touch payload again until release(payload)
// runs; the transport calls release once it no longer references the bytes,
// letting the caller recycle pooled wire buffers. A substrate that retains
// payload indefinitely (the simulator's zero-copy delivery queues) may
// never call release — the buffer then simply falls to the garbage
// collector, which is always safe. release may be nil.
type Multicaster interface {
	// MulticastOwned behaves like Transport.Multicast with the ownership
	// contract above.
	//
	// bftlint:send
	// bftlint:consumes=payload
	MulticastOwned(dsts []message.NodeID, payload []byte, release func([]byte))
	// SendOwned behaves like Transport.Send with the ownership contract
	// above.
	//
	// bftlint:send
	// bftlint:consumes=payload
	SendOwned(dst message.NodeID, payload []byte, release func([]byte))
}

// Network is the attachment point replicas and clients need; the simulated
// network and the UDP address book both provide it.
type Network interface {
	// Attach registers an endpoint that receives datagrams through h and
	// returns its sending half. The handler runs on the network's receive
	// goroutine, never the caller's.
	//
	// bftlint:runs=worker
	Attach(id message.NodeID, h Handler) Transport
}
