package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/bft"
	"repro/bft/kv"
)

// sample is one finished operation. For the open loop start is the instant
// the request was due, so a stall charges every request it delays.
type sample struct {
	start, end int64 // ns since the run's base
	val        uint64
	ok         bool
}

// phaseConfig shapes one measured interval on one cluster.
type phaseConfig struct {
	warmup  time.Duration
	window  time.Duration
	windows int
	// walCycles kill/restart cycles of a backup run after the windows,
	// with the load still on (durable workload, per-layer run only).
	walCycles int
}

// phasePlan derives the interval shape from the run length: a warm-up,
// then up to five windows no shorter than one failover cycle.
func phasePlan(seconds float64) phaseConfig {
	total := time.Duration(seconds * float64(time.Second))
	warm := total / 6
	if warm > 2*time.Second {
		warm = 2 * time.Second
	}
	if warm < 200*time.Millisecond {
		warm = 200 * time.Millisecond
	}
	n := int(total / (2400 * time.Millisecond))
	if n < 1 {
		n = 1
	}
	if n > 5 {
		n = 5
	}
	return phaseConfig{warmup: warm, window: total / time.Duration(n), windows: n}
}

type killRecord struct {
	replica           int
	killAt, restartAt int64
	rejoinedAt        int64         // 0: not while the cycle waited for it
	replay            time.Duration // log replay the restarted instance reports (durable only)
}

// phase is one run of the load against a bed.
type phase struct {
	b    *bed
	cfg  phaseConfig
	seed int64
	base time.Time

	stop atomic.Bool
	// samples[k] belongs to client goroutine k alone until wait returns.
	samples [][]sample
	issued  []atomic.Uint64 // operations started per client (set-up included)
	failed  atomic.Int64
	wrong   atomic.Int64 // results that contradict the service's contract
	late    []float64    // open loop: hand-over lateness, ms

	setupBlob []byte   // what the read workload must return
	payloads  [][]byte // per client write payload

	bounds   []usage
	before   counters
	after    counters
	dead     counters // final counters of killed instances
	queueMax atomic.Uint64
	execMax  atomic.Uint64
	kills    []killRecord
	walKills []killRecord
	measFrom int64
	measTo   int64

	unsafe, stalled []string     // verify's findings
	ws              *windowStats // windows' result, computed once the run is over
}

func newPhase(b *bed, cfg phaseConfig, seed int64, base time.Time) *phase {
	p := &phase{b: b, cfg: cfg, seed: seed, base: base}
	p.samples = make([][]sample, b.def.Clients)
	p.issued = make([]atomic.Uint64, b.def.Clients)
	rng := rand.New(rand.NewSource(seed))
	p.setupBlob = make([]byte, blobSize)
	rng.Read(p.setupBlob)
	for k := 0; k < b.def.Clients; k++ {
		pl := make([]byte, blobSize)
		rng.Read(pl)
		p.payloads = append(p.payloads, pl)
	}
	return p
}

func (p *phase) now() int64 { return int64(time.Since(p.base)) }

// firstOp issues the set-up operation through client 0: the blob the read
// workload reads back, or one operation of the workload's own kind.
func (p *phase) firstOp() error {
	var op []byte
	switch p.b.def.Op {
	case opIncr:
		op = kv.Incr()
	default:
		// Stamp 0 marks the set-up write; client stamps start at 1.
		binary.LittleEndian.PutUint64(p.setupBlob, 0)
		op = kv.WriteBlob(p.setupBlob)
	}
	p.issued[0].Add(1)
	res, err := p.b.invoke(p.b.clients[0], op, false)
	if err != nil {
		p.failed.Add(1)
		return fmt.Errorf("set-up operation: %w", err)
	}
	p.samples[0] = append(p.samples[0], sample{start: p.now(), end: p.now(), val: decodeIncr(p.b.def.Op, res), ok: true})
	return nil
}

func decodeIncr(op opKind, res []byte) uint64 {
	if op == opIncr && len(res) == 8 {
		return kv.DecodeU64(res)
	}
	return 0
}

// do runs client k's next operation and records it. due is the instant
// the open loop scheduled it for; 0 (closed loop) means now.
func (p *phase) do(k int, due int64) {
	c := p.b.clients[k]
	seq := p.issued[k].Add(1)
	var op []byte
	var stamp uint64
	readOnly := false
	switch p.b.def.Op {
	case opIncr:
		op = kv.Incr()
	case opWrite4k:
		stamp = uint64(k+1)<<40 | seq
		binary.LittleEndian.PutUint64(p.payloads[k], stamp)
		op = kv.WriteBlob(p.payloads[k])
	case opRead4k:
		op = kv.ReadBlob(blobSize)
		readOnly = true
	}
	start := due
	if start == 0 {
		start = p.now()
	}
	res, err := p.b.invoke(c, op, readOnly)
	s := sample{start: start, end: p.now(), ok: err == nil}
	if err != nil {
		p.failed.Add(1)
	} else {
		switch p.b.def.Op {
		case opIncr:
			if len(res) != 8 {
				p.wrong.Add(1)
			}
			s.val = decodeIncr(opIncr, res)
		case opWrite4k:
			s.val = stamp
		case opRead4k:
			if !bytes.Equal(res, p.setupBlob) {
				p.wrong.Add(1)
			}
		}
	}
	p.samples[k] = append(p.samples[k], s)
}

// run drives the load through warm-up, the measured windows and any
// trailing restart cycles, then stops the clients. It returns once every
// client goroutine has finished its last operation.
func (p *phase) run() error {
	if err := p.firstOp(); err != nil {
		return err
	}
	var clients sync.WaitGroup
	if p.b.def.OpenRate > 0 {
		p.startOpenLoop(&clients)
	} else {
		for k := range p.b.clients {
			clients.Add(1)
			go func(k int) {
				defer clients.Done()
				for !p.stop.Load() {
					p.do(k, 0)
				}
			}(k)
		}
	}

	time.Sleep(p.cfg.warmup)
	p.before = p.liveCounters()
	if p.b.tap != nil {
		p.b.tap.on.Store(true)
	}
	p.bounds = append(p.bounds, readUsage(p.base))
	p.measFrom = p.bounds[0].at
	t0 := time.Now()

	var helpers sync.WaitGroup
	quit := make(chan struct{})
	helpers.Add(1)
	go func() {
		defer helpers.Done()
		p.sampleDepths(quit)
	}()
	if p.b.def.Failover {
		helpers.Add(1)
		go func() {
			defer helpers.Done()
			p.failoverSchedule(t0)
		}()
	}
	for w := 1; w <= p.cfg.windows; w++ {
		time.Sleep(time.Until(t0.Add(time.Duration(w) * p.cfg.window)))
		p.bounds = append(p.bounds, readUsage(p.base))
	}
	p.measTo = p.bounds[len(p.bounds)-1].at
	close(quit)
	helpers.Wait()
	if p.b.tap != nil {
		p.b.tap.on.Store(false)
	}
	p.after = p.liveCounters()
	p.after.add(p.dead)

	for i := 0; i < p.cfg.walCycles; i++ {
		p.walKills = append(p.walKills, p.restartCycle(p.backup(), 200*time.Millisecond, rejoinPatience))
	}
	p.stop.Store(true)
	clients.Wait()
	return nil
}

// startOpenLoop sends on a fixed schedule regardless of completions: a
// scheduler hands each due instant to whichever of the pool's principals
// is idle, and a request waits in the hand-over queue when none is.
func (p *phase) startOpenLoop(clients *sync.WaitGroup) {
	// The buffer holds the requests that fall due during the longest stall
	// the workload provokes (a view change, a few hundred ms at 500/s)
	// many times over, so the scheduler itself never blocks.
	jobs := make(chan int64, 1<<14)
	interval := time.Duration(float64(time.Second) / p.b.def.OpenRate)
	clients.Add(1)
	go func() {
		defer clients.Done()
		defer close(jobs)
		t0 := time.Now()
		for i := 0; !p.stop.Load(); i++ {
			due := t0.Add(time.Duration(i) * interval)
			time.Sleep(time.Until(due))
			p.late = append(p.late, float64(time.Since(due))/1e6)
			jobs <- int64(due.Sub(p.base))
		}
	}()
	for k := range p.b.clients {
		clients.Add(1)
		go func(k int) {
			defer clients.Done()
			for due := range jobs {
				// What is still queued when the run stops is not sent: a
				// group that stopped answering would otherwise hold the
				// program for one retry budget per queued request.
				if !p.stop.Load() {
					p.do(k, due)
				}
			}
		}(k)
	}
}

// sampleDepths polls the queue gauges every 100 ms.
func (p *phase) sampleDepths(quit <-chan struct{}) {
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-quit:
			return
		case <-tick.C:
			for _, r := range p.b.live() {
				m := r.Metrics()
				maxU64(&p.queueMax, m.QueueDepth)
				maxU64(&p.execMax, m.ExecQueueDepth)
			}
		}
	}
}

func maxU64(dst *atomic.Uint64, v uint64) {
	for {
		cur := dst.Load()
		if v <= cur || dst.CompareAndSwap(cur, v) {
			return
		}
	}
}

// rejoinPatience is how long a restart cycle waits for the restarted
// replica to catch up under load before it goes on without it.
const rejoinPatience = 10 * time.Second

// failoverSchedule kills the current primary once per window, a sixth of
// the way in (plus a seeded jitter), and restarts it half a window later.
//
// The group tolerates one fault, and a replica restarted without a log has
// forgotten what it voted for, so a kill is taken only from a group that has
// been whole and advancing for the sixth of a window before it (see
// awaitSteady). On a calm host that holds as each kill falls due and changes
// nothing. On a host whose processor is being stolen, view-change timers
// fire early and a rejoin can run into the next kill, and a primary killed
// while a view change was still pending somewhere left the group in that
// view for good: the backups' wait for the new view is disarmed by the next
// client request to arrive and never armed again (an engine matter outside
// this program), so three live replicas of four neither change view nor
// execute, and every operation due from then on fails. So a kill waits for
// the group, and one whose restart no longer fits the measured interval is
// left out; pbft.kills says how many were taken.
func (p *phase) failoverSchedule(t0 time.Time) {
	rng := rand.New(rand.NewSource(p.seed ^ 0x6b696c6c))
	down := p.cfg.window / 2
	settle := p.cfg.window / 6
	end := t0.Add(time.Duration(p.cfg.windows) * p.cfg.window)
	lastKill := end.Add(-down - settle)
	for w := 0; w < p.cfg.windows; w++ {
		jitter := time.Duration(rng.Int63n(int64(p.cfg.window / 30)))
		due := t0.Add(time.Duration(w)*p.cfg.window + p.cfg.window/6 + jitter)
		// Watching from settle before the kill is due makes the due instant
		// the earliest at which the watch can end.
		time.Sleep(time.Until(due.Add(-settle)))
		if !p.awaitSteady(settle, lastKill) {
			return
		}
		// Wait for the victim at least to the end of the measured
		// interval: there is nothing better to do with the time.
		rec := p.restartCycle(p.primary(), down, max(rejoinPatience, time.Until(end)))
		p.kills = append(p.kills, rec)
		if rec.rejoinedAt == 0 {
			return
		}
	}
}

// stolen is the gap between two polls, 2 ms apart by the clock, beyond
// which the processor counts as having been taken away in between: timers
// inside the replicas will have fired early, whatever the group looks like
// at this instant.
const stolen = 50 * time.Millisecond

// awaitSteady returns true as soon as the group has been whole at every
// poll for settle, with no poll late and something executed in that time,
// so that the caller's next statement acts on a group known steady 2 ms
// ago. It returns false if that has not happened by deadline.
func (p *phase) awaitSteady(settle time.Duration, deadline time.Time) bool {
	var since, last time.Time
	var from uint64
	for {
		now := time.Now()
		if !now.Before(deadline) {
			return false
		}
		frontier, whole := p.whole()
		late := now.Sub(last) > stolen
		last = now
		switch {
		case !whole:
			since = time.Time{}
		case since.IsZero() || late:
			since, from = now, frontier
		case now.Sub(since) >= settle:
			if frontier > from {
				return true
			}
			since, from = now, frontier // whole but not executing: start over
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// whole reports whether every replica is in the same view and within a
// couple of batches of the furthest one's execution frontier, which it
// returns.
func (p *phase) whole() (frontier uint64, ok bool) {
	rs := p.b.live()
	view, low := rs[0].View(), rs[0].LastExecuted()
	ok = true
	for _, r := range rs {
		le := r.LastExecuted()
		frontier, low = max(frontier, le), min(low, le)
		ok = ok && r.View() == view
	}
	return frontier, ok && low+2 >= frontier
}

// restartCycle kills replica i, restarts it after down, and waits up to
// patience for its execution frontier to rejoin the group's.
func (p *phase) restartCycle(i int, down, patience time.Duration) killRecord {
	rec := killRecord{replica: i}
	p.dead.add(countersOf(p.b.replica(i).Metrics()))
	p.b.replica(i).Kill()
	rec.killAt = p.now() // once Kill returns nothing more leaves the replica
	time.Sleep(down)
	rec.restartAt = p.now()
	p.b.restart(i)
	deadline := time.Now().Add(patience)
	for time.Now().Before(deadline) {
		if p.caughtUp(i) {
			rec.rejoinedAt = p.now()
			rec.replay = p.b.replica(i).Metrics().ReplayTime
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	return rec
}

// caughtUp reports whether replica i has executed up to (within a couple
// of in-flight batches of) the furthest other replica.
func (p *phase) caughtUp(i int) bool {
	var peers uint64
	for j := 0; j < replicas; j++ {
		if j != i {
			if le := p.b.replica(j).LastExecuted(); le > peers {
				peers = le
			}
		}
	}
	return p.b.replica(i).LastExecuted()+2 >= peers
}

// primary returns the primary of the highest view any replica reports.
func (p *phase) primary() int {
	var view uint64
	for _, r := range p.b.live() {
		if v := r.View(); v > view {
			view = v
		}
	}
	return int(view % replicas)
}

func (p *phase) backup() int { return (p.primary() + 1) % replicas }

func (p *phase) liveCounters() counters {
	var c counters
	for _, r := range p.b.live() {
		c.add(countersOf(r.Metrics()))
	}
	return c
}

// counters are the Metrics fields the per-layer metrics divide by
// operations. Unlike bft.SumMetrics they support subtraction, which a
// measured interval needs.
type counters [numCounters]float64

const (
	cBatchesExecuted = iota
	cTentativeExecs
	cRollbacks
	cViewChanges
	cStable
	cBadAuth
	cInboxDrops
	cOutboxDrops
	cExecStalls
	cPagesCopied
	cPagesDigested
	cCkptMs
	cBatchesProposed
	cRequestsProposed
	cBatchWaitFires
	cWALAppends
	cWALFsyncs
	cWALBytes
	numCounters
)

func countersOf(m bft.Metrics) counters {
	return counters{
		cBatchesExecuted:  float64(m.BatchesExecuted),
		cTentativeExecs:   float64(m.TentativeExecs),
		cRollbacks:        float64(m.Rollbacks),
		cViewChanges:      float64(m.ViewChanges),
		cStable:           float64(m.StableCheckpoints),
		cBadAuth:          float64(m.MsgsDroppedBadAuth),
		cInboxDrops:       float64(m.InboxDrops),
		cOutboxDrops:      float64(m.OutboxDrops),
		cExecStalls:       float64(m.ExecStalls),
		cPagesCopied:      float64(m.PagesCopied),
		cPagesDigested:    float64(m.PagesDigested),
		cCkptMs:           float64(m.CkptDigestTime) / 1e6,
		cBatchesProposed:  float64(m.BatchesProposed),
		cRequestsProposed: float64(m.RequestsProposed),
		cBatchWaitFires:   float64(m.BatchWaitFires),
		cWALAppends:       float64(m.WALAppends),
		cWALFsyncs:        float64(m.WALFsyncs),
		cWALBytes:         float64(m.WALBytes),
	}
}

func (c *counters) add(o counters) {
	for i := range c {
		c[i] += o[i]
	}
}

func (c *counters) sub(o counters) {
	for i := range c {
		c[i] -= o[i]
	}
}
