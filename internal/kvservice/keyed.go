package kvservice

// keyed.go is the sharded-deployment face of the demo service: a keyed
// store (key -> value) with the two-phase lock/commit operations the
// bft/sharded cross-shard write protocol executes as ordered ops inside
// each participating group. It is a SEPARATE service layout from the
// counter/register/blob Service above — a sharded cluster replicates
// KeyedFactory in every group, and bft/sharded routes each key to its
// owning group via the consistent-hash ring (internal/shardmap).
//
// Determinism contract: Execute is a pure function of (state, client,
// op). There is no wall clock anywhere — time enters only as the `now`
// field coordinators embed in their operations, and the store keeps the
// maximum such value seen (maxNow). Lock leases expire relative to
// maxNow, so every replica of a group makes the identical expiry
// decision at the identical point in the op sequence. A client that lies
// about `now` can at worst expire leases early or hold its own late —
// a liveness nuisance inside one trust domain, never a safety issue:
// commit-vs-abort of a transaction is serialized by its home group's
// op order, not by clocks.
//
// Two-phase protocol (client is the coordinator; see bft/sharded):
//
//	lock   TxLock(tx, home, ttl, keys+staged values) at each group,
//	       ascending group order, home group first. All-or-nothing per
//	       group; Busy names the holder so a blocked coordinator can
//	       recover a stale one.
//	commit TxCommit(tx) at the home group FIRST — this is the commit
//	       point — then at the other participants.
//	abort  TxAbort(tx) releases a group's locks and records the outcome.
//	       Recovery for a crashed coordinator: past the TTL, anyone may
//	       resolve through the HOME group (abort there if it has not
//	       committed; its answer then propagates to the stuck groups).
//	       Aborting an unknown tx records Aborted, so a resolved outcome
//	       can never be contradicted by a late lock or commit.

import (
	"encoding/binary"

	"repro/internal/message"
	"repro/internal/statemachine"
)

// Keyed-store opcodes (disjoint from the counter/blob opcodes so a
// router can classify any kv op by its first byte).
const (
	OpKPut     byte = 0x20 // now, key, value: write one key
	OpKGet     byte = 0x21 // key: read-only fetch
	OpTxLock   byte = 0x22 // now, tx, home, ttl, keys+staged values
	OpTxCommit byte = 0x23 // now, tx: apply staged writes, release
	OpTxAbort  byte = 0x24 // now, tx, force: discard staged, release
	OpTxStatus byte = 0x25 // tx: read-only outcome probe
)

// Status is the first byte of every keyed-store result.
type Status byte

const (
	StatusOK        Status = 0 // operation applied (Put/Get/Lock)
	StatusNotFound  Status = 1 // Get: key absent
	StatusBusy      Status = 2 // key locked (payload: holder) / lease live
	StatusCommitted Status = 3 // tx outcome: committed (idempotent)
	StatusAborted   Status = 4 // tx outcome: aborted (idempotent)
	StatusUnknown   Status = 5 // tx not known to this group
	StatusFull      Status = 6 // key table out of slots
	StatusBad       Status = 7 // malformed operation (total function)
)

// Store geometry. Keys and values are length-capped so a slot is fixed
// size and the whole table lives in the paged Region like any other
// service state (checkpointed, state-transferred, recovery-checked for
// free).
const (
	MaxKeyLen   = 32
	MaxValueLen = 64

	offKMaxNow     = 0  // u64: max coordinator clock seen (lease frame)
	offKTxCursor   = 8  // u64: tx-outcome ring cursor
	offKTxTable    = 64 // txTableEntries * txEntrySize
	txTableEntries = 256
	txEntrySize    = 16 // txid u64, status u8, pad

	offKSlots = offKTxTable + txTableEntries*txEntrySize

	// Slot field offsets (within a slot).
	slotFlags      = 0 // bit0 live value, bit1 locked, bit2 staged value
	slotKLen       = 1
	slotKey        = 2
	slotVLen       = 34 // u16
	slotVal        = 36
	slotLockTx     = 100 // u64
	slotLockExpiry = 108 // u64 nanos in the maxNow frame
	slotLockHome   = 116 // u32 home group of the holder
	slotStagedVLen = 120 // u16
	slotStagedVal  = 122
	slotSize       = 192

	flagLive   = 1 << 0
	flagLocked = 1 << 1
	flagStaged = 1 << 2
)

// MinKeyedStateSize is the smallest region holding the keyed layout with
// a useful number of slots.
const MinKeyedStateSize = offKSlots + 64*slotSize

// KeyedService implements statemachine.Service over the keyed layout.
type KeyedService struct {
	r *statemachine.Region
}

// NewKeyed builds the keyed store over a region (at least
// MinKeyedStateSize bytes; larger regions hold proportionally more keys).
func NewKeyed(r *statemachine.Region) *KeyedService {
	if r.Size() < MinKeyedStateSize {
		panic("kvservice: region below MinKeyedStateSize for the keyed store")
	}
	return &KeyedService{r: r}
}

// KeyedFactory adapts NewKeyed to the replica constructor signature.
func KeyedFactory(r *statemachine.Region) statemachine.Service { return NewKeyed(r) }

// Slots returns the key capacity of this store's region.
func (s *KeyedService) Slots() int { return (s.r.Size() - offKSlots) / slotSize }

func (s *KeyedService) slotOff(i int) int { return offKSlots + i*slotSize }

func (s *KeyedService) maxNow() uint64 {
	return binary.LittleEndian.Uint64(s.r.Bytes()[offKMaxNow:])
}

// bumpNow folds an op-supplied coordinator clock into the store's lease
// frame and returns the frame value.
func (s *KeyedService) bumpNow(now uint64) uint64 {
	cur := s.maxNow()
	if now > cur {
		s.r.Modify(offKMaxNow, 8)
		binary.LittleEndian.PutUint64(s.r.Bytes()[offKMaxNow:], now)
		return now
	}
	return cur
}

// findSlot scans for key; returns (slot index, found) and the first free
// slot (-1 if none). A full scan keeps lookups correct without tombstone
// bookkeeping — the table is a few hundred slots, far below the cost of
// one agreement round.
func (s *KeyedService) findSlot(key []byte) (idx int, found bool, free int) {
	free = -1
	n := s.Slots()
	data := s.r.Bytes()
	for i := 0; i < n; i++ {
		off := s.slotOff(i)
		flags := data[off+slotFlags]
		if flags == 0 {
			if free < 0 {
				free = i
			}
			continue
		}
		klen := int(data[off+slotKLen])
		if klen == len(key) && string(data[off+slotKey:off+slotKey+klen]) == string(key) {
			return i, true, free
		}
	}
	return 0, false, free
}

func (s *KeyedService) slotLockedBy(i int) (tx uint64, home uint32, expiry uint64, locked bool) {
	off := s.slotOff(i)
	data := s.r.Bytes()
	if data[off+slotFlags]&flagLocked == 0 {
		return 0, 0, 0, false
	}
	return binary.LittleEndian.Uint64(data[off+slotLockTx:]),
		binary.LittleEndian.Uint32(data[off+slotLockHome:]),
		binary.LittleEndian.Uint64(data[off+slotLockExpiry:]), true
}

// txOutcome scans the outcome ring for txid.
func (s *KeyedService) txOutcome(txid uint64) (Status, bool) {
	data := s.r.Bytes()
	for i := 0; i < txTableEntries; i++ {
		off := offKTxTable + i*txEntrySize
		id := binary.LittleEndian.Uint64(data[off:])
		if id == txid && id != 0 {
			return Status(data[off+8]), true
		}
	}
	return StatusUnknown, false
}

// recordOutcome appends txid -> status to the outcome ring (overwriting
// the oldest entry once the ring wraps; see the capacity note in doc.go
// of bft/sharded).
func (s *KeyedService) recordOutcome(txid uint64, st Status) {
	cur := binary.LittleEndian.Uint64(s.r.Bytes()[offKTxCursor:])
	off := offKTxTable + int(cur%txTableEntries)*txEntrySize
	s.r.Modify(off, txEntrySize)
	binary.LittleEndian.PutUint64(s.r.Bytes()[off:], txid)
	s.r.Bytes()[off+8] = byte(st)
	s.r.Modify(offKTxCursor, 8)
	binary.LittleEndian.PutUint64(s.r.Bytes()[offKTxCursor:], cur+1)
}

// busyReply encodes StatusBusy plus the holder's identity so the caller
// can run coordinator recovery: holder txid, holder home group, lease
// expiry, and the store's current lease frame (so the caller can tell
// expired from live without trusting its own clock).
func busyReply(tx uint64, home uint32, expiry, now uint64) []byte {
	out := make([]byte, 1+8+4+8+8)
	out[0] = byte(StatusBusy)
	binary.LittleEndian.PutUint64(out[1:], tx)
	binary.LittleEndian.PutUint32(out[9:], home)
	binary.LittleEndian.PutUint64(out[13:], expiry)
	binary.LittleEndian.PutUint64(out[21:], now)
	return out
}

func statusReply(st Status) []byte { return []byte{byte(st)} }

// Execute implements statemachine.Service. The transition function is
// total: malformed operations return StatusBad. It must be a pure
// function of (state, client, op) — no clock, no randomness, no map
// iteration; lease decisions read only the op-carried `now` folded into
// the region's maxNow.
//
// bftlint:deterministic
func (s *KeyedService) Execute(client message.NodeID, op []byte, nondet []byte) []byte {
	if len(op) == 0 {
		return statusReply(StatusBad)
	}
	body := op[1:]
	switch op[0] {
	case OpKPut:
		return s.execPut(body)
	case OpKGet:
		return s.execGet(body)
	case OpTxLock:
		return s.execTxLock(body)
	case OpTxCommit:
		return s.execTxFinish(body, true)
	case OpTxAbort:
		return s.execTxFinish(body, false)
	case OpTxStatus:
		return s.execTxStatus(body)
	}
	return statusReply(StatusBad)
}

func (s *KeyedService) execPut(body []byte) []byte {
	if len(body) < 9 {
		return statusReply(StatusBad)
	}
	now := binary.LittleEndian.Uint64(body)
	key, val, rest := parseKV(body[8:])
	if key == nil || len(rest) != 0 {
		return statusReply(StatusBad)
	}
	frame := s.bumpNow(now)
	idx, found, free := s.findSlot(key)
	if found {
		if tx, home, expiry, locked := s.slotLockedBy(idx); locked {
			// Locked keys refuse writers — even past expiry: the staged
			// write needs resolution through the holder's home group
			// first (the client library does this on Busy).
			return busyReply(tx, home, expiry, frame)
		}
		s.writeLive(idx, key, val)
		return statusReply(StatusOK)
	}
	if free < 0 {
		return statusReply(StatusFull)
	}
	s.writeLive(free, key, val)
	return statusReply(StatusOK)
}

func (s *KeyedService) execGet(body []byte) []byte {
	key, rest, ok := parseKey(body)
	if !ok || len(rest) != 0 {
		return statusReply(StatusBad)
	}
	idx, found, _ := s.findSlot(key)
	if !found {
		return statusReply(StatusNotFound)
	}
	off := s.slotOff(idx)
	data := s.r.Bytes()
	if data[off+slotFlags]&flagLive == 0 {
		// Lock-only reservation (an insert staged by an unresolved tx):
		// the committed view of this key is "absent".
		return statusReply(StatusNotFound)
	}
	vlen := int(binary.LittleEndian.Uint16(data[off+slotVLen:]))
	out := make([]byte, 1+2+vlen)
	out[0] = byte(StatusOK)
	binary.LittleEndian.PutUint16(out[1:], uint16(vlen))
	copy(out[3:], data[off+slotVal:off+slotVal+vlen])
	return out
}

func (s *KeyedService) execTxLock(body []byte) []byte {
	if len(body) < 8+8+4+8+2 {
		return statusReply(StatusBad)
	}
	now := binary.LittleEndian.Uint64(body)
	txid := binary.LittleEndian.Uint64(body[8:])
	home := binary.LittleEndian.Uint32(body[16:])
	ttl := binary.LittleEndian.Uint64(body[20:])
	nkeys := int(binary.LittleEndian.Uint16(body[28:]))
	rest := body[30:]
	if txid == 0 || nkeys == 0 {
		return statusReply(StatusBad)
	}
	type staged struct {
		key, val []byte
	}
	kvs := make([]staged, 0, nkeys)
	for i := 0; i < nkeys; i++ {
		var key, val []byte
		key, val, rest = parseKV(rest)
		if key == nil {
			return statusReply(StatusBad)
		}
		kvs = append(kvs, staged{key, val})
	}
	if len(rest) != 0 {
		return statusReply(StatusBad)
	}
	frame := s.bumpNow(now)
	// A resolved transaction can never re-lock: the resolution (commit or
	// abort) was serialized by this group's op order and must stand.
	if st, ok := s.txOutcome(txid); ok {
		return statusReply(st)
	}
	// Validate pass: all keys lockable, or nothing locks. Free slots are
	// claimed greedily in the apply pass, so count them here.
	freeNeeded := 0
	for _, kv := range kvs {
		idx, found, _ := s.findSlot(kv.key)
		if !found {
			freeNeeded++
			continue
		}
		if tx, h, expiry, locked := s.slotLockedBy(idx); locked && tx != txid {
			return busyReply(tx, h, expiry, frame)
		}
	}
	if freeNeeded > 0 {
		freeCount := 0
		n := s.Slots()
		for i := 0; i < n; i++ {
			if s.r.Bytes()[s.slotOff(i)+slotFlags] == 0 {
				freeCount++
			}
		}
		if freeCount < freeNeeded {
			return statusReply(StatusFull)
		}
	}
	// Apply pass: lock every key with the staged value.
	expiry := frame + ttl
	for _, kv := range kvs {
		idx, found, free := s.findSlot(kv.key)
		if !found {
			idx = free
			off := s.slotOff(idx)
			s.r.Modify(off, slotSize)
			data := s.r.Bytes()
			for i := off; i < off+slotSize; i++ {
				data[i] = 0
			}
			data[off+slotKLen] = byte(len(kv.key))
			copy(data[off+slotKey:], kv.key)
		}
		off := s.slotOff(idx)
		s.r.Modify(off, slotSize)
		data := s.r.Bytes()
		data[off+slotFlags] |= flagLocked | flagStaged
		binary.LittleEndian.PutUint64(data[off+slotLockTx:], txid)
		binary.LittleEndian.PutUint64(data[off+slotLockExpiry:], expiry)
		binary.LittleEndian.PutUint32(data[off+slotLockHome:], home)
		binary.LittleEndian.PutUint16(data[off+slotStagedVLen:], uint16(len(kv.val)))
		copy(data[off+slotStagedVal:], kv.val)
	}
	return statusReply(StatusOK)
}

// execTxFinish is commit (apply staged writes) or abort (discard them);
// both release the tx's locks and record the outcome so the decision is
// idempotent and a late opposite op is refused.
func (s *KeyedService) execTxFinish(body []byte, commit bool) []byte {
	if len(body) < 16 {
		return statusReply(StatusBad)
	}
	now := binary.LittleEndian.Uint64(body)
	txid := binary.LittleEndian.Uint64(body[8:])
	force := !commit && len(body) >= 17 && body[16] == 1
	if txid == 0 {
		return statusReply(StatusBad)
	}
	frame := s.bumpNow(now)
	if st, ok := s.txOutcome(txid); ok {
		return statusReply(st) // already resolved: idempotent answer
	}
	// Collect this tx's locks.
	var held []int
	n := s.Slots()
	for i := 0; i < n; i++ {
		if tx, _, expiry, locked := s.slotLockedBy(i); locked && tx == txid {
			if !commit && !force && expiry >= frame {
				// Recovery abort inside the lease: the coordinator may
				// still be driving this tx — refuse until the TTL passes.
				_, home, _, _ := s.slotLockedBy(i)
				return busyReply(txid, home, expiry, frame)
			}
			held = append(held, i)
		}
	}
	if len(held) == 0 {
		if commit {
			// Commit of a tx this group never saw (or whose outcome was
			// evicted): refuse without recording — the coordinator holds
			// the retry loop, and recording Committed here could
			// resurrect an evicted abort.
			return statusReply(StatusUnknown)
		}
		// Abort of an unknown tx RECORDS the abort: this is the recovery
		// linchpin — once the home group answers Aborted, a late lock or
		// commit for this tx must find the tombstone and fail.
		s.recordOutcome(txid, StatusAborted)
		return statusReply(StatusAborted)
	}
	for _, i := range held {
		off := s.slotOff(i)
		s.r.Modify(off, slotSize)
		data := s.r.Bytes()
		if commit {
			vlen := binary.LittleEndian.Uint16(data[off+slotStagedVLen:])
			binary.LittleEndian.PutUint16(data[off+slotVLen:], vlen)
			copy(data[off+slotVal:off+slotVal+int(vlen)], data[off+slotStagedVal:off+slotStagedVal+int(vlen)])
			data[off+slotFlags] = flagLive
		} else if data[off+slotFlags]&flagLive != 0 {
			data[off+slotFlags] = flagLive // keep the committed value
		} else {
			// Insert reservation: aborting erases the slot entirely.
			for b := off; b < off+slotSize; b++ {
				data[b] = 0
			}
		}
		if commit || data[off+slotFlags]&flagLive != 0 {
			// Clear lock/staged fields for hygiene (flags already reset).
			zero := [slotSize - slotLockTx]byte{}
			copy(data[off+slotLockTx:off+slotSize], zero[:])
		}
	}
	if commit {
		s.recordOutcome(txid, StatusCommitted)
		return statusReply(StatusCommitted)
	}
	s.recordOutcome(txid, StatusAborted)
	return statusReply(StatusAborted)
}

func (s *KeyedService) execTxStatus(body []byte) []byte {
	if len(body) < 8 {
		return statusReply(StatusBad)
	}
	txid := binary.LittleEndian.Uint64(body)
	if st, ok := s.txOutcome(txid); ok {
		return statusReply(st)
	}
	n := s.Slots()
	for i := 0; i < n; i++ {
		if tx, home, expiry, locked := s.slotLockedBy(i); locked && tx == txid {
			return busyReply(tx, home, expiry, s.maxNow())
		}
	}
	return statusReply(StatusUnknown)
}

// writeLive sets a slot's committed value (insert or overwrite).
func (s *KeyedService) writeLive(idx int, key, val []byte) {
	off := s.slotOff(idx)
	s.r.Modify(off, slotSize)
	data := s.r.Bytes()
	data[off+slotFlags] = flagLive
	data[off+slotKLen] = byte(len(key))
	copy(data[off+slotKey:], key)
	binary.LittleEndian.PutUint16(data[off+slotVLen:], uint16(len(val)))
	copy(data[off+slotVal:], val)
}

// IsReadOnly implements statemachine.Service. Decided from the op bytes
// alone.
func (s *KeyedService) IsReadOnly(op []byte) bool {
	if len(op) == 0 {
		return false
	}
	switch op[0] {
	case OpKGet, OpTxStatus:
		return true
	}
	return false
}

// ProposeNonDet implements statemachine.Service (deterministic service).
func (s *KeyedService) ProposeNonDet() []byte { return nil }

// CheckNonDet implements statemachine.Service.
func (s *KeyedService) CheckNonDet(nondet []byte) bool { return len(nondet) == 0 }

// --- Wire helpers -----------------------------------------------------

// parseKey decodes "klen u8, key" returning the key and the remainder.
func parseKey(b []byte) (key, rest []byte, ok bool) {
	if len(b) < 1 {
		return nil, nil, false
	}
	klen := int(b[0])
	if klen == 0 || klen > MaxKeyLen || len(b) < 1+klen {
		return nil, nil, false
	}
	return b[1 : 1+klen], b[1+klen:], true
}

// parseKV decodes "klen u8, key, vlen u16, val"; nil key means malformed.
func parseKV(b []byte) (key, val, rest []byte) {
	key, b, ok := parseKey(b)
	if !ok || len(b) < 2 {
		return nil, nil, nil
	}
	vlen := int(binary.LittleEndian.Uint16(b))
	if vlen > MaxValueLen || len(b) < 2+vlen {
		return nil, nil, nil
	}
	return key, b[2 : 2+vlen], b[2+vlen:]
}

func appendKV(op []byte, key, val []byte) []byte {
	op = append(op, byte(len(key)))
	op = append(op, key...)
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(val)))
	op = append(op, l[:]...)
	return append(op, val...)
}

// --- Operation encoders (client-side helpers) -------------------------

// KPut encodes a single-key write. now is the coordinator's clock in
// nanoseconds (it only advances the store's lease frame).
func KPut(now uint64, key, val []byte) []byte {
	op := make([]byte, 9, 9+1+len(key)+2+len(val))
	op[0] = OpKPut
	binary.LittleEndian.PutUint64(op[1:], now)
	return appendKV(op, key, val)
}

// KGet encodes a read-only single-key fetch.
func KGet(key []byte) []byte {
	op := make([]byte, 1, 2+len(key))
	op[0] = OpKGet
	op = append(op, byte(len(key)))
	return append(op, key...)
}

// TxKV is one staged write of a TxLock operation.
type TxKV struct {
	Key, Val []byte
}

// TxLock encodes phase 1 for one group: lock (and stage) every listed
// key under txid with the given lease, recording the tx's home group for
// recovery routing.
func TxLock(now, txid uint64, home uint32, ttl uint64, kvs []TxKV) []byte {
	op := make([]byte, 31)
	op[0] = OpTxLock
	binary.LittleEndian.PutUint64(op[1:], now)
	binary.LittleEndian.PutUint64(op[9:], txid)
	binary.LittleEndian.PutUint32(op[17:], home)
	binary.LittleEndian.PutUint64(op[21:], ttl)
	binary.LittleEndian.PutUint16(op[29:], uint16(len(kvs)))
	for _, kv := range kvs {
		op = appendKV(op, kv.Key, kv.Val)
	}
	return op
}

// TxCommit encodes phase 2: apply txid's staged writes and release.
func TxCommit(now, txid uint64) []byte {
	op := make([]byte, 17)
	op[0] = OpTxCommit
	binary.LittleEndian.PutUint64(op[1:], now)
	binary.LittleEndian.PutUint64(op[9:], txid)
	return op
}

// TxAbort encodes the release path. force aborts even inside the lease
// (the coordinator abandoning its own tx); without force the op refuses
// with StatusBusy until the TTL passes — the recovery rule.
func TxAbort(now, txid uint64, force bool) []byte {
	op := make([]byte, 18)
	op[0] = OpTxAbort
	binary.LittleEndian.PutUint64(op[1:], now)
	binary.LittleEndian.PutUint64(op[9:], txid)
	if force {
		op[17] = 1
	}
	return op
}

// TxStatus encodes the read-only outcome probe.
func TxStatus(txid uint64) []byte {
	op := make([]byte, 9)
	op[0] = OpTxStatus
	binary.LittleEndian.PutUint64(op[1:], txid)
	return op
}

// --- Result decoders --------------------------------------------------

// DecodeStatus reads the status byte of any keyed-store result.
func DecodeStatus(res []byte) Status {
	if len(res) == 0 {
		return StatusBad
	}
	return Status(res[0])
}

// DecodeValue decodes a successful KGet result.
func DecodeValue(res []byte) ([]byte, bool) {
	if len(res) < 3 || Status(res[0]) != StatusOK {
		return nil, false
	}
	vlen := int(binary.LittleEndian.Uint16(res[1:]))
	if len(res) < 3+vlen {
		return nil, false
	}
	return append([]byte(nil), res[3:3+vlen]...), true
}

// BusyInfo is the holder identity carried by a StatusBusy result.
type BusyInfo struct {
	Tx     uint64 // holder transaction id
	Home   uint32 // holder's home group (recovery routes here)
	Expiry uint64 // lease end, in the store's maxNow frame
	Now    uint64 // the store's maxNow at execution time
}

// Expired reports whether the lease had already lapsed when the group
// executed the op that returned this Busy.
func (b BusyInfo) Expired() bool { return b.Now > b.Expiry }

// DecodeBusy decodes the holder identity from a StatusBusy result.
func DecodeBusy(res []byte) (BusyInfo, bool) {
	if len(res) < 29 || Status(res[0]) != StatusBusy {
		return BusyInfo{}, false
	}
	return BusyInfo{
		Tx:     binary.LittleEndian.Uint64(res[1:]),
		Home:   binary.LittleEndian.Uint32(res[9:]),
		Expiry: binary.LittleEndian.Uint64(res[13:]),
		Now:    binary.LittleEndian.Uint64(res[21:]),
	}, true
}

// KeyOf extracts the routing key of a keyed-store op: the key of a
// Put/Get, or the FIRST key of a TxLock. Tx finish/status ops carry no
// key (they are routed by group, not by key) and return false.
func KeyOf(op []byte) ([]byte, bool) {
	if len(op) == 0 {
		return nil, false
	}
	switch op[0] {
	case OpKPut:
		if len(op) < 9 {
			return nil, false
		}
		key, _, ok := parseKey(op[9:])
		return key, ok
	case OpKGet:
		key, _, ok := parseKey(op[1:])
		return key, ok
	case OpTxLock:
		if len(op) < 31 {
			return nil, false
		}
		key, _, _ := parseKV(op[31:])
		return key, key != nil
	}
	return nil, false
}
