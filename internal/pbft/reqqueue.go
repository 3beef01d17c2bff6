package pbft

import (
	"repro/internal/crypto"
	"repro/internal/message"
)

// requestQueue is the primary-side (and backup waiting-set) request queue of
// §2.3.5/§5.5: FIFO over clients, at most one entry — the newest request —
// per client. It is an intrusive doubly-linked list indexed by client, so
// enqueue, replace, and dequeue-by-client are all O(1) however many clients
// are backed up behind the primary. Each entry carries its operation size,
// which the batch assembler reads through Front and Pop to apply its byte
// cap.
//
// Nodes that leave the list wait in free, unlinked, for the next Push, so a
// queue that has once held k clients queues them again without allocating.
type requestQueue struct {
	head, tail *reqNode
	byClient   map[message.NodeID]*reqNode
	free       []*reqNode
}

// reqNode is one queued request: the client principal, the digest of its
// newest request, and the operation size the byte cap reads.
type reqNode struct {
	client     message.NodeID
	digest     crypto.Digest
	size       int
	prev, next *reqNode
}

func newRequestQueue() requestQueue {
	return requestQueue{byClient: make(map[message.NodeID]*reqNode)}
}

// Len returns the number of queued requests (= clients with a queued entry).
func (q *requestQueue) Len() int { return len(q.byClient) }

// Digest returns the queued digest for a client, if any.
func (q *requestQueue) Digest(client message.NodeID) (crypto.Digest, bool) {
	n, ok := q.byClient[client]
	if !ok {
		return crypto.Digest{}, false
	}
	return n.digest, true
}

// Front returns the oldest queued entry without removing it.
func (q *requestQueue) Front() (client message.NodeID, d crypto.Digest, size int, ok bool) {
	if q.head == nil {
		return 0, crypto.Digest{}, 0, false
	}
	return q.head.client, q.head.digest, q.head.size, true
}

// Push appends a request for client at the tail. If the client already has
// a queued entry it is replaced by the newer request — removed from its
// position and re-queued at the tail (§5.5 fairness: one slot per client,
// newest request wins). Pushing the digest already queued is a no-op.
func (q *requestQueue) Push(client message.NodeID, d crypto.Digest, size int) {
	if old, ok := q.byClient[client]; ok {
		if old.digest == d {
			return
		}
		q.unlink(old)
	}
	var n *reqNode
	if k := len(q.free); k > 0 {
		n, q.free = q.free[k-1], q.free[:k-1]
	} else {
		n = new(reqNode)
	}
	*n = reqNode{client: client, digest: d, size: size}
	q.byClient[client] = n
	if q.tail == nil {
		q.head, q.tail = n, n
		return
	}
	n.prev = q.tail
	q.tail.next = n
	q.tail = n
}

// Remove drops the client's entry if it matches d exactly.
func (q *requestQueue) Remove(client message.NodeID, d crypto.Digest) {
	if n, ok := q.byClient[client]; ok && n.digest == d {
		q.unlink(n)
	}
}

// RemoveClient drops the client's entry regardless of digest.
func (q *requestQueue) RemoveClient(client message.NodeID) {
	if n, ok := q.byClient[client]; ok {
		q.unlink(n)
	}
}

// Pop removes and returns the oldest entry.
func (q *requestQueue) Pop() (client message.NodeID, d crypto.Digest, size int, ok bool) {
	n := q.head
	if n == nil {
		return 0, crypto.Digest{}, 0, false
	}
	q.unlink(n)
	return n.client, n.digest, n.size, true
}

// Each walks the queue head to tail; fn returning false stops the walk. The
// current node may be removed by fn (the walk holds its successor first).
func (q *requestQueue) Each(fn func(client message.NodeID, d crypto.Digest) bool) {
	for n := q.head; n != nil; {
		next := n.next
		if !fn(n.client, n.digest) {
			return
		}
		n = next
	}
}

func (q *requestQueue) unlink(n *reqNode) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		q.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		q.tail = n.prev
	}
	n.prev, n.next = nil, nil
	delete(q.byClient, n.client)
	q.free = append(q.free, n)
}
