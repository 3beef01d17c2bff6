// Package kvservice is the replicated service used by the micro-benchmarks
// and tests: a counter, a register file, and a blob area that together can
// express the paper's 0/0, a/0 and 0/b operations (§8.1) as well as the
// linearizability checks.
//
// All state lives inside the library-managed memory region; every mutation
// goes through Region.Modify, honoring the Byz_modify contract (§6.2).
package kvservice

import (
	"encoding/binary"
	"time"

	"repro/internal/message"
	"repro/internal/statemachine"
)

// Operation opcodes (first byte of the op buffer).
const (
	OpNoop      byte = 0x00 // 0/0: no argument, no result
	OpIncr      byte = 0x01 // counter++; returns the new value
	OpGet       byte = 0x02 // read-only: returns the counter
	OpWriteBlob byte = 0x03 // a/0: writes the argument into the blob area
	OpReadBlob  byte = 0x04 // 0/b: returns n bytes from the blob area
	OpSetReg    byte = 0x05 // registers[k] = v
	OpGetReg    byte = 0x06 // read-only: returns registers[k]
	OpGetTime   byte = 0x07 // returns the agreed non-deterministic value
	OpAppendLog byte = 0x08 // appends client id to the shared order log
	OpReadLog   byte = 0x09 // read-only: returns the shared order log
)

// Region layout offsets.
const (
	offCounter = 0  // 8 bytes
	offCursor  = 8  // 8 bytes: blob write cursor
	offLogLen  = 16 // 8 bytes: order-log length
	offRegs    = 64 // 256 registers * 8 bytes
	offLog     = 64 + 256*8
	logCap     = 4096 // order-log entries (8 bytes each)
	offBlob    = offLog + logCap*8
)

// MinStateSize is the smallest region New accepts: the fixed layout plus
// one blob page.
const MinStateSize = offBlob + 4096

// Service implements statemachine.Service over a Region.
type Service struct {
	r *statemachine.Region

	// Timestamps enables the non-determinism protocol of §5.4: the primary
	// proposes its clock reading; backups accept it within Tolerance.
	Timestamps bool
	Tolerance  time.Duration

	// Clock is the local clock source (overridable in tests).
	Clock func() int64
}

// New creates the service bound to a region. It panics if the region is
// smaller than MinStateSize: like a bad option, a region that cannot hold
// the layout is a construction-time fault, not a panic in Execute on the
// first write past its end.
func New(r *statemachine.Region) *Service {
	if r.Size() < MinStateSize {
		panic("kvservice: region below MinStateSize")
	}
	return &Service{r: r, Tolerance: 10 * time.Second, Clock: func() int64 { return time.Now().UnixNano() }}
}

// Factory adapts New to the replica constructor signature.
func Factory(r *statemachine.Region) statemachine.Service { return New(r) }

// TimestampFactory builds a service with clock agreement enabled.
func TimestampFactory(r *statemachine.Region) statemachine.Service {
	s := New(r)
	s.Timestamps = true
	return s
}

func (s *Service) u64(off int) uint64 {
	return binary.LittleEndian.Uint64(s.r.Bytes()[off:])
}

func (s *Service) putU64(off int, v uint64) {
	s.r.Modify(off, 8)
	binary.LittleEndian.PutUint64(s.r.Bytes()[off:], v)
}

// Execute implements statemachine.Service. The transition function is
// total: malformed operations return an empty result rather than failing.
// It must be a pure function of (state, client, op, nondet) — bfttime
// flags any wall-clock read reachable from here; local time belongs in
// ProposeNonDet, where the protocol agrees on it first (§5.4).
//
// bftlint:deterministic
func (s *Service) Execute(client message.NodeID, op []byte, nondet []byte) []byte {
	if len(op) == 0 {
		return nil
	}
	body := op[1:]
	switch op[0] {
	case OpNoop:
		return nil

	case OpIncr:
		v := s.u64(offCounter) + 1
		s.putU64(offCounter, v)
		return u64bytes(v)

	case OpGet:
		return u64bytes(s.u64(offCounter))

	case OpWriteBlob:
		if len(body) == 0 {
			return nil
		}
		blobArea := s.r.Size() - offBlob
		cur := int(s.u64(offCursor)) % blobArea
		n := len(body)
		if n > blobArea {
			n = blobArea
		}
		// Write with wraparound.
		first := n
		if cur+first > blobArea {
			first = blobArea - cur
		}
		s.r.WriteAt(offBlob+cur, body[:first])
		if first < n {
			s.r.WriteAt(offBlob, body[first:n])
		}
		s.putU64(offCursor, uint64((cur+n)%blobArea))
		return nil

	case OpReadBlob:
		if len(body) < 4 {
			return nil
		}
		n := int(binary.LittleEndian.Uint32(body))
		blobArea := s.r.Size() - offBlob
		if n < 0 {
			return nil
		}
		if n > blobArea {
			n = blobArea
		}
		return s.r.ReadAt(offBlob, n)

	case OpSetReg:
		if len(body) < 12 {
			return nil
		}
		k := int(binary.LittleEndian.Uint32(body)) % 256
		v := binary.LittleEndian.Uint64(body[4:])
		s.putU64(offRegs+8*k, v)
		return u64bytes(v)

	case OpGetReg:
		if len(body) < 4 {
			return nil
		}
		k := int(binary.LittleEndian.Uint32(body)) % 256
		return u64bytes(s.u64(offRegs + 8*k))

	case OpGetTime:
		return append([]byte(nil), nondet...)

	case OpAppendLog:
		n := s.u64(offLogLen)
		if n < logCap {
			s.putU64(offLog+8*int(n), uint64(uint32(client)))
			s.putU64(offLogLen, n+1)
		}
		return u64bytes(n)

	case OpReadLog:
		n := int(s.u64(offLogLen))
		if n > logCap {
			n = logCap
		}
		return s.r.ReadAt(offLog, 8*n)
	}
	return nil
}

// IsReadOnly implements statemachine.Service.
func (s *Service) IsReadOnly(op []byte) bool {
	if len(op) == 0 {
		return false
	}
	switch op[0] {
	case OpGet, OpReadBlob, OpGetReg, OpReadLog:
		return true
	}
	return false
}

// ProposeNonDet implements statemachine.Service: the primary proposes its
// local clock when timestamp agreement is on (§5.4).
func (s *Service) ProposeNonDet() []byte {
	if !s.Timestamps {
		return nil
	}
	return u64bytes(uint64(s.Clock()))
}

// CheckNonDet implements statemachine.Service: backups accept a proposed
// clock within Tolerance of their own (§5.4's optimized common case).
func (s *Service) CheckNonDet(nondet []byte) bool {
	if !s.Timestamps {
		return len(nondet) == 0
	}
	if len(nondet) != 8 {
		return false
	}
	prop := int64(binary.LittleEndian.Uint64(nondet))
	diff := s.Clock() - prop
	if diff < 0 {
		diff = -diff
	}
	return time.Duration(diff) <= s.Tolerance
}

func u64bytes(v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return b[:]
}

// --- Operation encoders (client-side helpers) ---

// Noop returns a 0/0 operation.
func Noop() []byte { return []byte{OpNoop} }

// Incr returns the counter-increment operation.
func Incr() []byte { return []byte{OpIncr} }

// Get returns the read-only counter fetch.
func Get() []byte { return []byte{OpGet} }

// WriteBlob returns an a/0 operation carrying data.
func WriteBlob(data []byte) []byte { return append([]byte{OpWriteBlob}, data...) }

// ReadBlob returns a 0/b operation requesting n result bytes.
func ReadBlob(n int) []byte {
	op := make([]byte, 5)
	op[0] = OpReadBlob
	binary.LittleEndian.PutUint32(op[1:], uint32(n))
	return op
}

// SetReg returns registers[k]=v.
func SetReg(k uint32, v uint64) []byte {
	op := make([]byte, 13)
	op[0] = OpSetReg
	binary.LittleEndian.PutUint32(op[1:], k)
	binary.LittleEndian.PutUint64(op[5:], v)
	return op
}

// GetReg returns the read-only register fetch.
func GetReg(k uint32) []byte {
	op := make([]byte, 5)
	op[0] = OpGetReg
	binary.LittleEndian.PutUint32(op[1:], k)
	return op
}

// GetTime returns the agreed-timestamp operation.
func GetTime() []byte { return []byte{OpGetTime} }

// AppendLog returns the order-log append operation.
func AppendLog() []byte { return []byte{OpAppendLog} }

// ReadLog returns the read-only order-log fetch.
func ReadLog() []byte { return []byte{OpReadLog} }

// DecodeU64 reads a result produced by counter/register operations.
func DecodeU64(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
