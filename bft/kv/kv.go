// Package kv is the public face of the library's demo service: a counter,
// a register file, and a blob area replicated by bft. It is the service
// the examples, the quickstart, and the micro-benchmark shapes (§8.1's
// 0/0, a/0, 0/b operations) run on — import it together with repro/bft:
//
//	cluster := bft.NewCluster(bft.Options{Replicas: 4}, kv.Factory)
//	...
//	res, _ := client.Invoke(ctx, kv.Incr())
//	n := kv.DecodeU64(res)
package kv

import (
	"repro/internal/kvservice"
	"repro/internal/statemachine"
)

// MinStateSize is the smallest Options.StateSize that fits the service's
// fixed layout plus one blob page. Factory and TimestampFactory panic on a
// smaller region.
const MinStateSize = kvservice.MinStateSize

// Factory builds one service instance per replica; pass it to
// bft.NewReplica or bft.NewCluster.
func Factory(r *statemachine.Region) statemachine.Service {
	return kvservice.Factory(r)
}

// TimestampFactory builds the service with clock agreement enabled — the
// primary proposes its clock reading and backups accept it within a
// tolerance (the non-determinism protocol of §5.4). GetTime reads the
// agreed value.
func TimestampFactory(r *statemachine.Region) statemachine.Service {
	return kvservice.TimestampFactory(r)
}

// Noop encodes the 0/0 operation: no argument, no result.
func Noop() []byte { return kvservice.Noop() }

// Incr encodes counter++; the reply is the new value (DecodeU64).
func Incr() []byte { return kvservice.Incr() }

// Get encodes a read of the counter. It is read-only: invoke it with
// bft.ReadOnly for the single-round-trip path.
func Get() []byte { return kvservice.Get() }

// WriteBlob encodes an a/0 operation writing data into the blob area.
func WriteBlob(data []byte) []byte { return kvservice.WriteBlob(data) }

// ReadBlob encodes a 0/b operation returning n bytes from the blob area.
func ReadBlob(n int) []byte { return kvservice.ReadBlob(n) }

// SetReg encodes registers[k] = v.
func SetReg(k uint32, v uint64) []byte { return kvservice.SetReg(k, v) }

// GetReg encodes a read-only read of registers[k].
func GetReg(k uint32) []byte { return kvservice.GetReg(k) }

// GetTime encodes a read of the agreed non-deterministic value
// (TimestampFactory services).
func GetTime() []byte { return kvservice.GetTime() }

// DecodeU64 decodes the numeric replies (Incr, Get, GetReg, GetTime).
func DecodeU64(b []byte) uint64 { return kvservice.DecodeU64(b) }
