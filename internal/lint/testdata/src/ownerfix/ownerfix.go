// Package ownerfix exercises bftowner: goroutine-ownership annotations and
// call-graph reachability from entrypoints, rendezvous exemption, runs=
// closure checking, method-level owner overrides, and allow= suppression.
package ownerfix

// replica mimics the event-loop-owned protocol core. Field-level
// annotations only: method calls on replica are not themselves accesses.
type replica struct {
	seq   int      // bftlint:owner=eventloop
	view  int      // bftlint:owner=eventloop
	inbox chan int // bftlint:owner=shared
}

// region mimics executor-owned execution state with a type-level owner:
// calling any of its methods counts as touching executor state.
//
// bftlint:owner=executor
type region struct{ n int }

func (g *region) modify() { g.n++ }

// stats is a shared-method carve-out of an owned type.
//
// bftlint:owner=executor
type cache struct {
	m    map[int]int
	hits int
}

// Len touches nothing a single goroutine owns.
//
// bftlint:owner=shared
func (c *cache) Len() int { return len(c.m) }

// sync is a rendezvous: closures run serialized against every owner.
//
// bftlint:rendezvous
func sync(fn func()) { fn() }

// spawn mimics a worker-pool constructor: literal args run on workers.
//
// bftlint:runs=worker
func spawn(fn func()) { go fn() }

// bump is an unannotated helper; reaching seq through it must still be
// reported at the entrypoint's call site with the chain.
func (r *replica) bump() { r.seq++ }

// bftlint:entrypoint=worker
func decode(r *replica, g *region, c *cache) {
	r.inbox <- 1             // shared field: ok
	_ = r.seq                // want `worker-context decode reaches eventloop-owned replica\.seq`
	r.bump()                 // want `eventloop-owned replica\.seq via bump`
	g.modify()               // want `executor-owned \(region\)\.modify` `executor-owned region\.n via modify`
	_ = c.Len()              // owner=shared method override: ok
	sync(func() { r.seq++ }) // rendezvous closure: exempt
	_ = r.view               // bftlint:allow=bftowner inspection hook, externally coordinated
}

// arm is not an entrypoint itself, but the closure it hands to spawn runs
// on a worker and is checked under that domain.
func arm(r *replica) {
	_ = r.seq // not an entrypoint: unchecked
	spawn(func() {
		r.seq++ // want `worker-context closure reaches eventloop-owned replica\.seq`
	})
}

// bftlint:entrypoint=executor
func execute(g *region, r *replica) {
	g.modify() // executor touching executor state: ok
	_ = r.seq  // want `executor-context execute reaches eventloop-owned replica\.seq`
}
