package pbft

import (
	"testing"

	"repro/internal/crypto"
	"repro/internal/message"
)

// checkQueueLinks fails unless the list from head to tail is consistently
// doubly linked, holds exactly the nodes byClient indexes, and shares no
// node with the free list, whose nodes carry no links.
func checkQueueLinks(t *testing.T, q *requestQueue, step string) {
	t.Helper()
	onList := make(map[*reqNode]bool)
	var prev *reqNode
	for n := q.head; n != nil; n = n.next {
		if n.prev != prev {
			t.Fatalf("%s: node of client %d has a stale prev link", step, n.client)
		}
		if q.byClient[n.client] != n {
			t.Fatalf("%s: node of client %d on the list is not the one indexed", step, n.client)
		}
		onList[n] = true
		prev = n
	}
	if q.tail != prev {
		t.Fatalf("%s: tail is not the last node on the list", step)
	}
	if len(onList) != len(q.byClient) {
		t.Fatalf("%s: %d nodes on the list, %d indexed", step, len(onList), len(q.byClient))
	}
	for _, n := range q.free {
		if onList[n] {
			t.Fatalf("%s: a free node is still on the list", step)
		}
		if n.prev != nil || n.next != nil {
			t.Fatalf("%s: a free node keeps stale links", step)
		}
	}
}

func queuedClient(i int) message.NodeID { return message.ClientIDBase + message.NodeID(i) }

func queuedDigest(i, ts int) crypto.Digest { return crypto.Digest{byte(i), byte(ts)} }

// TestRequestQueueReusesNodes drives the queue through push, replace, pop
// and remove, checking its links after each step, as nodes leave the list
// for the free list and come back from it.
func TestRequestQueueReusesNodes(t *testing.T) {
	q := newRequestQueue()
	cli, dig := queuedClient, queuedDigest

	for i := 0; i < 4; i++ {
		q.Push(cli(i), dig(i, 1), 10+i)
		checkQueueLinks(t, &q, "push")
	}
	q.Push(cli(1), dig(1, 2), 21) // replace: the old node is freed, then reused
	checkQueueLinks(t, &q, "replace")
	if c, _, size, _ := q.Pop(); c != cli(0) || size != 10 {
		t.Fatalf("popped client %d size %d, want %d/10", c, size, cli(0))
	}
	checkQueueLinks(t, &q, "pop")
	q.Remove(cli(3), dig(3, 1))
	checkQueueLinks(t, &q, "remove")
	q.RemoveClient(cli(2))
	checkQueueLinks(t, &q, "remove client")
	q.Push(cli(5), dig(5, 1), 15)
	checkQueueLinks(t, &q, "push onto reused node")
	if c, _, size, ok := q.Front(); !ok || c != cli(1) || size != 21 {
		t.Fatalf("front client %d size %d, want %d/21", c, size, cli(1))
	}
	// A reused node carries the size of the request pushed onto it.
	for _, want := range []struct {
		c    message.NodeID
		size int
	}{{cli(1), 21}, {cli(5), 15}} {
		if c, _, size, ok := q.Pop(); !ok || c != want.c || size != want.size {
			t.Fatalf("popped client %d size %d, want %d/%d", c, size, want.c, want.size)
		}
		checkQueueLinks(t, &q, "drain")
	}
	if q.Len() != 0 || q.head != nil || q.tail != nil {
		t.Fatalf("drained queue: len=%d", q.Len())
	}
}

// TestRequestQueueAllocationBudget pins that a queue which has held a
// client before queues it again without allocating.
func TestRequestQueueAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	q := newRequestQueue()
	cli, dig := queuedClient, queuedDigest
	ts := 0
	// AllocsPerRun's warm-up round allocates the nodes the others reuse.
	if got := testing.AllocsPerRun(200, func() {
		ts++
		for i := 0; i < 4; i++ {
			q.Push(cli(i), dig(i, ts), 10)
		}
		q.Push(cli(2), dig(2, ts+1), 10)
		q.RemoveClient(cli(3))
		for q.Len() > 0 {
			q.Pop()
		}
	}); got != 0 {
		t.Errorf("%v allocations per round of pushes and pops, want 0", got)
	}
	checkQueueLinks(t, &q, "after reuse")
}
