package executor

import (
	"encoding/binary"

	"repro/internal/message"
)

// Cached is the last reply sent to one client (§2.4.4 last-rep). Result
// arrays are immutable once stored: retransmissions and the WrongResult
// fault personality copy before mutating.
type Cached struct {
	Timestamp uint64
	Result    []byte
	Tentative bool
}

// ReplyCache is the per-client last-reply table. It is part of the
// checkpointed state (its serialization rides in every snapshot's Extra
// blob), so its wire encoding must stay identical across configurations —
// every replica in a group must produce the same checkpoint digest.
//
// bftlint:owner=eventloop
type ReplyCache struct {
	m map[message.NodeID]*Cached
}

// NewReplyCache returns an empty cache.
func NewReplyCache() *ReplyCache {
	return &ReplyCache{m: make(map[message.NodeID]*Cached)}
}

// Get returns client's entry, or nil.
func (c *ReplyCache) Get(client message.NodeID) *Cached { return c.m[client] }

// Set records the reply for client's request at ts. It overwrites client's
// entry in place, so an entry Get returned earlier now holds this reply.
func (c *ReplyCache) Set(client message.NodeID, ts uint64, result []byte, tentative bool) {
	if cr, ok := c.m[client]; ok {
		*cr = Cached{Timestamp: ts, Result: result, Tentative: tentative}
		return
	}
	c.m[client] = &Cached{Timestamp: ts, Result: result, Tentative: tentative}
}

// MarkFinal clears the tentative flag of client's entry if it is still the
// reply for ts (§5.1.2 finalize).
func (c *ReplyCache) MarkFinal(client message.NodeID, ts uint64) {
	if cr, ok := c.m[client]; ok && cr.Timestamp == ts {
		cr.Tentative = false
	}
}

// Len returns the number of cached entries.
func (c *ReplyCache) Len() int { return len(c.m) }

// Marshal serializes the cache in deterministic order (ascending client
// id) — the checkpointed form, identical on every replica.
func (c *ReplyCache) Marshal() []byte {
	ids := make([]message.NodeID, 0, len(c.m))
	for id := range c.m {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	var out []byte
	var buf [8]byte
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(ids)))
	out = append(out, buf[:4]...)
	for _, id := range ids {
		cr := c.m[id]
		binary.LittleEndian.PutUint32(buf[:4], uint32(id))
		out = append(out, buf[:4]...)
		binary.LittleEndian.PutUint64(buf[:], cr.Timestamp)
		out = append(out, buf[:8]...)
		binary.LittleEndian.PutUint32(buf[:4], uint32(len(cr.Result)))
		out = append(out, buf[:4]...)
		out = append(out, cr.Result...)
	}
	return out
}

// Install replaces the cache contents with a marshaled blob (checkpoint
// restore: rollback, state transfer). Checkpointed replies correspond to
// committed execution, so entries install non-tentative.
func (c *ReplyCache) Install(b []byte) {
	c.m = make(map[message.NodeID]*Cached)
	if len(b) < 4 {
		return
	}
	n := int(binary.LittleEndian.Uint32(b[:4]))
	off := 4
	for i := 0; i < n && off+16 <= len(b); i++ {
		id := message.NodeID(binary.LittleEndian.Uint32(b[off:]))
		ts := binary.LittleEndian.Uint64(b[off+4:])
		rl := int(binary.LittleEndian.Uint32(b[off+12:]))
		off += 16
		if rl < 0 || off+rl > len(b) {
			return
		}
		result := append([]byte(nil), b[off:off+rl]...)
		c.m[id] = &Cached{Timestamp: ts, Result: result, Tentative: false}
		off += rl
	}
}
