package sharded

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/bft/kv"
)

// ErrNoKey is returned by InvokeContext for an operation kv.KeyOf cannot
// extract a routing key from.
var ErrNoKey = errors.New("sharded: operation carries no routing key")

// Client routes operations across the cluster's groups and coordinates
// cross-shard writes. It is a lightweight handle over the cluster's
// per-shard pools — safe for concurrent use, with concurrency bounded by
// each shard's pool (Options.PoolSize in-flight ops per shard).
type Client struct {
	c *Cluster
	// now is the coordinator clock (nanoseconds) embedded in keyed-store
	// ops; it only drives lock-lease bookkeeping. Overridable in tests.
	now func() uint64
	// hookLocked fires after each successful TxLock during PutMulti —
	// a test seam for killing primaries or coordinators mid-two-phase.
	hookLocked func(shard int)
}

// NewClient hands out a routing client. Clients share the cluster's
// per-shard pools, so creating many of them does not raise the per-shard
// in-flight limit.
func (c *Cluster) NewClient() *Client {
	return &Client{c: c, now: func() uint64 { return uint64(time.Now().UnixNano()) }}
}

// nextTx returns a transaction id unique within this cluster handle.
// Multi-process deployments must partition the id space per coordinator
// process (e.g. high bits from the process's client-principal range);
// in-process — the scope of this package today — the shared counter is
// already collision-free.
func (cl *Client) nextTx() uint64 { return cl.c.txSeq.Add(1) }

// shard invokes op inside group g through its pool.
func (cl *Client) shard(ctx context.Context, g int, op []byte, readOnly bool) ([]byte, error) {
	return cl.c.pools[g].InvokeContext(ctx, op, readOnly)
}

// InvokeContext routes a single-key keyed-store op to the owning group —
// the library-wide invoker contract, so a sharded client drops into any
// driver a bft.Client fits.
func (cl *Client) InvokeContext(ctx context.Context, op []byte, readOnly bool) ([]byte, error) {
	key, ok := kv.KeyOf(op)
	if !ok {
		return nil, ErrNoKey
	}
	return cl.shard(ctx, cl.c.ring.Owner(key), op, readOnly)
}

// Put writes one key, retrying through lock-holder recovery: a key held
// by a stale transaction (coordinator gone past its TTL) is resolved via
// the holder's home group and the write retried. Blocks until the write
// applies or ctx ends.
func (cl *Client) Put(ctx context.Context, key, val []byte) error {
	owner := cl.c.ring.Owner(key)
	for {
		res, err := cl.shard(ctx, owner, kv.Put(cl.now(), key, val), false)
		if err != nil {
			return err
		}
		switch st := kv.DecodeStatus(res); st {
		case kv.StatusOK:
			return nil
		case kv.StatusBusy:
			info, _ := kv.DecodeBusy(res)
			if err := cl.resolve(ctx, owner, info); err != nil {
				return err
			}
		default:
			return fmt.Errorf("sharded: put %q: status %d", key, st)
		}
	}
}

// Get reads one key with the owning group's quorum read (§5.1.3); found
// is false when the key is absent.
func (cl *Client) Get(ctx context.Context, key []byte) (val []byte, found bool, err error) {
	res, err := cl.shard(ctx, cl.c.ring.Owner(key), kv.GetKey(key), true)
	if err != nil {
		return nil, false, err
	}
	switch st := kv.DecodeStatus(res); st {
	case kv.StatusOK:
		v, _ := kv.DecodeValue(res)
		return v, true, nil
	case kv.StatusNotFound:
		return nil, false, nil
	default:
		return nil, false, fmt.Errorf("sharded: get %q: status %d", key, st)
	}
}

// MultiGet fans per-key quorum reads across the owning groups and
// assembles the answers in key order. It takes no locks: each element is
// the committed value its group's quorum vouched for at read time.
func (cl *Client) MultiGet(ctx context.Context, keys [][]byte) (vals [][]byte, found []bool, err error) {
	vals = make([][]byte, len(keys))
	found = make([]bool, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		go func(i int, key []byte) {
			defer wg.Done()
			vals[i], found[i], errs[i] = cl.Get(ctx, key)
		}(i, key)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, nil, e
		}
	}
	return vals, found, nil
}

// PutMulti atomically writes a set of keys that may span shards: all of
// them commit or none do, with exactly-once effect, even across view
// changes inside participating groups and coordinator retries.
//
// The client coordinates a two-phase protocol whose steps are ordinary
// ordered ops in each group: phase 1 locks and stages every key, walking
// the participating shards in ASCENDING order (a global lock order, so
// two contending transactions cannot deadlock — the lower-ordered one
// wins the first contended group). The lowest participating shard is the
// transaction's HOME; phase 2 commits there first — the home group's op
// order is the commit point — then releases the remaining shards.
// Contention and stale holders are resolved through resolve; a lost race
// restarts with a fresh transaction id.
func (cl *Client) PutMulti(ctx context.Context, writes []kv.TxKV) error {
	if len(writes) == 0 {
		return nil
	}
	// Bucket writes per owning shard, walking shard ids — never a map —
	// so participant order is the global ascending lock order.
	buckets := make([][]kv.TxKV, cl.c.Shards())
	for _, w := range writes {
		g := cl.c.ring.Owner(w.Key)
		buckets[g] = append(buckets[g], w)
	}
	var participants []int
	for g, b := range buckets {
		if len(b) > 0 {
			participants = append(participants, g)
		}
	}
	home := participants[0]
	ttl := uint64(cl.c.opts.lockTTL().Nanoseconds())

attempt:
	for {
		txid := cl.nextTx()
		var locked []int
		for _, p := range participants {
			for { // lock this participant, resolving contention
				res, err := cl.shard(ctx, p, kv.TxLock(cl.now(), txid, uint32(home), ttl, buckets[p]), false)
				if err != nil {
					cl.release(ctx, txid, locked)
					return err
				}
				switch st := kv.DecodeStatus(res); st {
				case kv.StatusOK:
				case kv.StatusBusy:
					info, _ := kv.DecodeBusy(res)
					if err := cl.resolve(ctx, p, info); err != nil {
						cl.release(ctx, txid, locked)
						return err
					}
					continue
				case kv.StatusAborted:
					// A contender resolved us past our TTL (we were too
					// slow). The abort is recorded; release what we hold
					// and restart under a fresh id.
					cl.release(ctx, txid, locked)
					continue attempt
				default:
					cl.release(ctx, txid, locked)
					return fmt.Errorf("sharded: lock on shard %d: status %d", p, st)
				}
				break
			}
			locked = append(locked, p)
			if cl.hookLocked != nil {
				cl.hookLocked(p)
			}
		}

		// Phase 2: the home group's op order decides the transaction.
		res, err := cl.shard(ctx, home, kv.TxCommit(cl.now(), txid), false)
		if err != nil {
			// The commit may or may not have been ordered — the engine's
			// exactly-once cache hides nothing here because the op itself
			// is idempotent; but with ctx gone we cannot find out. Leave
			// resolution to TTL recovery.
			return err
		}
		switch st := kv.DecodeStatus(res); st {
		case kv.StatusCommitted:
		case kv.StatusAborted:
			// Lost the race at home (a contender aborted us there before
			// our commit was ordered). Release the others and restart.
			cl.release(ctx, txid, participants[1:])
			continue attempt
		default:
			return fmt.Errorf("sharded: commit at home shard %d: status %d", home, st)
		}
		// Home committed: the outcome is decided; releasing the remaining
		// shards cannot fail semantically (commit is idempotent, and any
		// contender's recovery propagates the same outcome).
		for _, p := range participants[1:] {
			res, err := cl.shard(ctx, p, kv.TxCommit(cl.now(), txid), false)
			if err != nil {
				return err
			}
			if st := kv.DecodeStatus(res); st != kv.StatusCommitted {
				return fmt.Errorf("sharded: commit at shard %d: status %d", p, st)
			}
		}
		return nil
	}
}

// release force-aborts txid at the given shards — the coordinator
// abandoning its own transaction (so force is safe: it is ours, and we
// have not committed at home). Best-effort: a shard that cannot be
// reached stays locked until TTL recovery unblocks it.
func (cl *Client) release(ctx context.Context, txid uint64, shards []int) {
	for _, p := range shards {
		if _, err := cl.shard(ctx, p, kv.TxAbort(cl.now(), txid, true), false); err != nil {
			return
		}
	}
}

// resolve unblocks a key held by transaction info.Tx observed on
// stuckShard. Inside the lease it just waits the remainder out (the
// coordinator may well be alive and mid-protocol). Past the lease it
// resolves through the holder's HOME group — abort there if the tx never
// committed, and whatever the home answers (Committed from a slow
// coordinator, Aborted otherwise) is propagated to the stuck shard,
// releasing the lock. This is why a crashed coordinator cannot wedge a
// key past its TTL.
func (cl *Client) resolve(ctx context.Context, stuckShard int, info kv.BusyInfo) error {
	if int(info.Home) >= cl.c.Shards() {
		return fmt.Errorf("sharded: busy reply names home shard %d of %d", info.Home, cl.c.Shards())
	}
	if !info.Expired() {
		wait := time.Duration(info.Expiry - info.Now)
		if limit := 100 * time.Millisecond; wait > limit {
			wait = limit
		}
		select {
		case <-time.After(wait):
			return nil // lease ran down (or the holder finished): caller retries
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	res, err := cl.shard(ctx, int(info.Home), kv.TxAbort(cl.now(), info.Tx, false), false)
	if err != nil {
		return err
	}
	var propagate []byte
	switch st := kv.DecodeStatus(res); st {
	case kv.StatusAborted:
		// Home never committed it (or someone already resolved it the
		// same way): force the release on the stuck shard — safe, the
		// home's tombstone refuses any late commit.
		propagate = kv.TxAbort(cl.now(), info.Tx, true)
	case kv.StatusCommitted:
		// A slow coordinator got its commit ordered at home: finish its
		// job on the stuck shard.
		propagate = kv.TxCommit(cl.now(), info.Tx)
	case kv.StatusBusy:
		// The home group's lease frame lags the stuck shard's (fewer ops
		// executed there): not expired everywhere yet. Wait and retry.
		select {
		case <-time.After(10 * time.Millisecond):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	default:
		return fmt.Errorf("sharded: resolving tx %d at home shard %d: status %d", info.Tx, info.Home, st)
	}
	if int(info.Home) == stuckShard {
		return nil // resolving the home WAS the release
	}
	res, err = cl.shard(ctx, stuckShard, propagate, false)
	if err != nil {
		return err
	}
	if st := kv.DecodeStatus(res); st != kv.StatusAborted && st != kv.StatusCommitted {
		return fmt.Errorf("sharded: propagating tx %d outcome to shard %d: status %d", info.Tx, stuckShard, st)
	}
	return nil
}
