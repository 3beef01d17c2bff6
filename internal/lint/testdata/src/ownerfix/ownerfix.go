// Package ownerfix exercises bftowner: goroutine-ownership annotations and
// call-graph reachability from entrypoints, runs= closure checking,
// method-level owner overrides, allow= suppression, and the directive
// hygiene checks (unknown keys and domains, directives after text, prose
// that is no directive).
package ownerfix

// replica mimics the event-loop-owned protocol core. Field-level
// annotations only: method calls on replica are not themselves accesses.
type replica struct {
	seq   int      // bftlint:owner=eventloop
	view  int      // bftlint:owner=eventloop
	inbox chan int // bftlint:owner=shared
	// A directive must start its comment; after other text it is ignored,
	// so this field would silently keep the struct's (absent) owner.
	note  int // replayed from the log; bftlint:owner=eventloop // want `directive after other comment text is ignored`
	quote int // a backquoted `bftlint:owner=eventloop` is prose: ok
	stale int // bftlint:owner=worker // want `unknown owner domain "worker"`
	// Keys of deleted analyzers, and misspelled ones, annotate nothing.
	bound int // bftlint:faultbound // want `unknown directive key "faultbound"`
	typo  int // bftlint:ownr=eventloop // want `unknown directive key "ownr"`
}

// region mimics event-loop-owned execution state with a type-level owner:
// calling any of its methods counts as touching event-loop state.
//
// bftlint:owner=eventloop
type region struct{ n int }

func (g *region) modify() { g.n++ }

// cache is a shared-method carve-out of an owned type.
//
// bftlint:owner=eventloop
type cache struct {
	m    map[int]int
	hits int
}

// Len touches nothing a single goroutine owns.
//
// bftlint:owner=shared
func (c *cache) Len() int { return len(c.m) }

// spawn mimics a worker-pool constructor: literal args run on workers.
//
// bftlint:runs=worker
func spawn(fn func()) { go fn() }

// bump is an unannotated helper; reaching seq through it must still be
// reported at the entrypoint's call site with the chain.
func (r *replica) bump() { r.seq++ }

// prose is not a directive: a wrapped line of a doc comment's list
//   - may start with the prefix, as this item's next line does when it
//     bftlint:owner=eventloop names the domain in passing,
//
// so prose has no owner, and an entrypoint reading it is no finding.
type prose struct{ n int }

// bftlint:entrypoint=worker
func decode(r *replica, g *region, c *cache, p *prose) {
	r.inbox <- 1 // shared field: ok
	_ = r.seq    // want `worker-context decode reaches eventloop-owned replica\.seq`
	r.bump()     // want `eventloop-owned replica\.seq via bump`
	g.modify()   // want `eventloop-owned \(region\)\.modify` `eventloop-owned region\.n via modify`
	_ = c.Len()  // owner=shared method override: ok
	_ = p.n      // prose annotates nothing: ok
	_ = r.view   // bftlint:allow=bftowner inspection hook, externally coordinated
}

// arm is not an entrypoint itself, but the closure it hands to spawn runs
// on a worker and is checked under that domain.
func arm(r *replica) {
	_ = r.seq // not an entrypoint: unchecked
	spawn(func() {
		r.seq++ // want `worker-context closure reaches eventloop-owned replica\.seq`
	})
}

// loop names the event loop as an entry domain, which only workers are.
//
// bftlint:entrypoint=eventloop
func loop(r *replica) { r.seq++ } // want `unknown entrypoint domain "eventloop"`
