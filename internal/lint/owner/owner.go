// Package owner implements bftowner, the ownership analyzer of the bftlint
// suite. It exists for the invariant PBFT's safety argument starts from:
// the replica is one automaton whose state nothing else touches (thesis
// §6.1; Castro & Liskov §4.2 assume serialized access). Protocol and
// execution state are owned by the replica's event loop; the goroutines
// that run beside it (the transport's receive goroutine, where ingress
// verification runs, and the WAL writer) must not reach that state.
//
// The rules are declared with the annotation grammar of internal/lint/doc.go:
//
//   - `bftlint:owner=eventloop` on a struct type, field or method marks
//     event-loop state; `bftlint:owner=shared` marks state (or a method)
//     safe from any goroutine: channels, atomics, immutable config.
//   - `bftlint:entrypoint=worker` on a function declares that its body runs
//     off the event loop (a receive-goroutine callback, the WAL writer).
//   - `bftlint:runs=worker` on a function declares that function-literal
//     arguments execute off the event loop (transport attach handlers,
//     ingress sinks); their bodies are checked too.
//
// The analyzer computes, per function, the event-loop state reachable
// through static calls (propagated across packages via facts) and reports
// every access from a worker entry point. Dynamic dispatch through
// interfaces is invisible to the call graph; closing that hole is what the
// entrypoint annotations on the concrete implementations (the verifier's
// Verify methods) are for.
//
// bftowner also keeps the grammar closed: it reports a directive whose key
// no analyzer reads (annot.Keys), and a `bftlint:` token that follows other
// text in its comment, which the grammar never reads. Either one looks like
// an annotation but annotates nothing.
package owner

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/lint/annot"
	"repro/internal/lint/driver"
)

// Name is the analyzer name, used in `bftlint:allow=` suppressions.
const Name = "bftowner"

// Analyzer is the bftowner analysis. It guards the replica's
// single-automaton invariant: code on the receive and WAL-writer
// goroutines touches no event-loop state.
var Analyzer = &driver.Analyzer{
	Name: Name,
	Doc:  "check goroutine-ownership annotations: worker entry points must not reach event-loop-owned state",
	Run:  run,
}

// OwnerFact marks a type, struct field or method as event-loop-owned, or
// a method as shared.
type OwnerFact struct{ Domain string }

// RunsFact marks a function whose function-literal arguments execute on a
// worker.
type RunsFact struct{}

// Access is one reachable touch of event-loop-owned state.
type Access struct {
	Desc  string   // e.g. "(*statemachine.Region).Modify" or "pbft.Replica.queue"
	Chain []string // call path (function names) from the summarized function
}

// AccessFact summarizes the owned state a function reaches, for
// cross-package propagation.
type AccessFact struct{ Accesses []Access }

func (*OwnerFact) AFact()  {}
func (*RunsFact) AFact()   {}
func (*AccessFact) AFact() {}

// The values owner= accepts, and the one execution domain entrypoint= and
// runs= accept. Every access a worker reaches is to event-loop state, so
// every one is a finding.
const (
	eventloop = "eventloop"
	shared    = "shared"
	worker    = "worker"
)

// maxAccesses caps per-function summaries so facts stay small.
const maxAccesses = 64

type ctx struct {
	pass *driver.Pass

	localOwner map[types.Object]string // annotated types and fields, this package
	localCtx   map[*types.Func]bool
	localRuns  map[*types.Func]bool

	decls   map[*types.Func]*ast.FuncDecl
	sums    map[*types.Func]*summary
	flatMap map[*types.Func][]Access
	onStack map[*types.Func]bool
}

type callRec struct {
	fn  *types.Func
	pos token.Pos
}

type summary struct {
	direct []Access // Chain empty; pos in directPos
	pos    []token.Pos
	calls  []callRec
	spawns []*ast.FuncLit // literals handed to a runs=worker function
}

func run(pass *driver.Pass) error {
	c := &ctx{
		pass:       pass,
		localOwner: make(map[types.Object]string),
		localCtx:   make(map[*types.Func]bool),
		localRuns:  make(map[*types.Func]bool),
		decls:      make(map[*types.Func]*ast.FuncDecl),
		sums:       make(map[*types.Func]*summary),
		flatMap:    make(map[*types.Func][]Access),
		onStack:    make(map[*types.Func]bool),
	}
	c.collectAnnotations()
	c.exportAnnotationFacts()

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.decls[fn] = fd
				}
			}
		}
	}

	// Summarize every declared function, then flatten through the local
	// call graph (imports resolved through facts).
	for fn, fd := range c.decls {
		sum := &summary{}
		c.scan(fd.Body, sum)
		c.sums[fn] = sum
	}
	fns := make([]*types.Func, 0, len(c.decls))
	for fn := range c.decls {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].Pos() < fns[j].Pos() })
	for _, fn := range fns {
		flat := c.flatten(fn)
		if len(flat) > 0 {
			// Strip positions before exporting: they are meaningless in
			// other packages.
			facc := make([]Access, len(flat))
			copy(facc, flat)
			pass.ExportObjectFact(fn, &AccessFact{Accesses: facc})
		}
	}

	// Check entrypoints.
	for _, fn := range fns {
		if c.localCtx[fn] {
			c.checkReach(fn.Name(), c.decls[fn].Name.Pos(), c.sums[fn])
		}
	}
	// Check closures spawned into a domain (`bftlint:runs`) from any local
	// function, including transitively spawned ones.
	for _, fn := range fns {
		c.checkSpawns(c.sums[fn])
	}
	return nil
}

// checkReach reports every access in sum (flattened): code running on a
// worker may touch no event-loop state.
func (c *ctx) checkReach(label string, fallbackPos token.Pos, sum *summary) {
	for i, acc := range sum.direct {
		pos := sum.pos[i]
		if !pos.IsValid() {
			pos = fallbackPos
		}
		c.report(pos, label, acc)
	}
	for _, call := range sum.calls {
		for _, acc := range c.accessesOf(call.fn) {
			chained := acc
			chained.Chain = append([]string{call.fn.Name()}, acc.Chain...)
			c.report(call.pos, label, chained)
		}
	}
}

// checkSpawns checks every `bftlint:runs` closure recorded in sum,
// recursing into the closures' own spawns.
func (c *ctx) checkSpawns(sum *summary) {
	for _, lit := range sum.spawns {
		inner := &summary{}
		c.scan(lit.Body, inner)
		c.checkReach("closure", lit.Pos(), inner)
		c.checkSpawns(inner)
	}
}

func (c *ctx) report(pos token.Pos, label string, acc Access) {
	via := ""
	if len(acc.Chain) > 0 {
		via = " via " + strings.Join(acc.Chain, " -> ")
	}
	c.pass.Reportf(pos,
		"worker-context %s reaches eventloop-owned %s%s; only the event loop may touch it",
		label, acc.Desc, via)
}

// ---------------------------------------------------------------------------
// Annotation collection
// ---------------------------------------------------------------------------

func (c *ctx) collectAnnotations() {
	info := c.pass.TypesInfo
	for _, f := range c.pass.Files {
		for _, cg := range f.Comments {
			for _, pos := range annot.Stray(cg) {
				c.pass.Reportf(pos, "bftlint: directive after other comment text is ignored; start a comment with it, or quote it in backquotes")
			}
			for _, d := range annot.Parse(cg) {
				if !annot.Known(d.Key) {
					c.pass.Reportf(d.Pos, "bftlint: unknown directive key %q: no analyzer reads it", d.Key)
				}
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					c.collectTypeSpec(d, ts, info)
				}
			case *ast.FuncDecl:
				c.collectFuncDecl(d, info)
			}
		}
	}
}

func (c *ctx) collectTypeSpec(gd *ast.GenDecl, ts *ast.TypeSpec, info *types.Info) {
	ds := annot.TypeDirectives(gd, ts)
	structDomain, hasStruct := annot.Value(ds, "owner")
	if hasStruct && !c.checkOwner(ts.Pos(), structDomain) {
		hasStruct = false
	}
	tn, _ := info.Defs[ts.Name].(*types.TypeName)
	if hasStruct && structDomain != shared && tn != nil {
		c.localOwner[tn] = structDomain
	}
	st, isStruct := ts.Type.(*ast.StructType)
	if !isStruct {
		return
	}
	for _, field := range st.Fields.List {
		fds := annot.FieldDirectives(field)
		domain, has := annot.Value(fds, "owner")
		if has && !c.checkOwner(field.Pos(), domain) {
			has = false
		}
		if !has {
			if !hasStruct {
				continue
			}
			domain = structDomain
		}
		if domain == shared {
			continue
		}
		for _, name := range field.Names {
			if obj, ok := info.Defs[name].(*types.Var); ok {
				c.localOwner[obj] = domain
			}
		}
	}
}

func (c *ctx) collectFuncDecl(fd *ast.FuncDecl, info *types.Info) {
	ds := annot.FuncDirectives(fd)
	if len(ds) == 0 {
		return
	}
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	if d, has := annot.Value(ds, "owner"); has {
		// Method-level owner override: calling this method counts as touching
		// d-owned state regardless of the receiver type's owner; owner=shared
		// declares the method safe from any domain (it touches only shared
		// fields), carving it out of an owned type.
		if c.checkOwner(fd.Pos(), d) {
			c.localOwner[fn] = d
		}
	}
	for _, key := range []string{"entrypoint", "runs"} {
		d, has := annot.Value(ds, key)
		if !has {
			continue
		}
		switch {
		case d != worker:
			c.pass.Reportf(fd.Pos(), "bftlint: unknown %s domain %q (want worker)", key, d)
		case key == "entrypoint":
			c.localCtx[fn] = true
		default:
			c.localRuns[fn] = true
		}
	}
}

// checkOwner reports an owner= value other than eventloop or shared.
func (c *ctx) checkOwner(pos token.Pos, domain string) bool {
	if domain == eventloop || domain == shared {
		return true
	}
	c.pass.Reportf(pos, "bftlint: unknown owner domain %q (want eventloop or shared)", domain)
	return false
}

// collectInterfaceMethods annotates interface methods: directives on an
// interface's method fields are gathered when the interface TypeSpec is
// visited (method fields look like struct fields in the AST).
// (Handled by collectTypeSpec? No — interface methods live in
// *ast.InterfaceType. Collected here via exportAnnotationFacts walking
// files again.)
func (c *ctx) collectInterfaceAnnotations() {
	info := c.pass.TypesInfo
	for _, f := range c.pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			it, ok := n.(*ast.InterfaceType)
			if !ok {
				return true
			}
			for _, m := range it.Methods.List {
				ds := annot.FieldDirectives(m)
				if len(ds) == 0 {
					continue
				}
				for _, name := range m.Names {
					fn, ok := info.Defs[name].(*types.Func)
					if !ok {
						continue
					}
					if d, has := annot.Value(ds, "runs"); has && d == worker {
						c.localRuns[fn] = true
					}
				}
			}
			return true
		})
	}
}

func (c *ctx) exportAnnotationFacts() {
	c.collectInterfaceAnnotations()
	for obj, domain := range c.localOwner {
		obj := obj
		c.pass.ExportObjectFact(obj, &OwnerFact{Domain: domain})
	}
	for fn := range c.localRuns {
		c.pass.ExportObjectFact(fn, &RunsFact{})
	}
}

// ---------------------------------------------------------------------------
// Lookup helpers (local annotation, then imported fact)
// ---------------------------------------------------------------------------

func (c *ctx) ownerOf(obj types.Object) string {
	if obj == nil {
		return ""
	}
	if d, ok := c.localOwner[obj]; ok {
		return d
	}
	if obj.Pkg() == nil || obj.Pkg() == c.pass.Pkg {
		return ""
	}
	var f OwnerFact
	if c.pass.ImportObjectFact(obj, &f) {
		return f.Domain
	}
	return ""
}

func (c *ctx) runsOnWorker(fn *types.Func) bool {
	if c.localRuns[fn] {
		return true
	}
	if fn.Pkg() == nil || fn.Pkg() == c.pass.Pkg {
		return false
	}
	var f RunsFact
	return c.pass.ImportObjectFact(fn, &f)
}

// accessesOf returns the flattened access set of fn: computed locally for
// declared functions, imported as a fact otherwise.
func (c *ctx) accessesOf(fn *types.Func) []Access {
	if _, ok := c.decls[fn]; ok {
		return c.flatten(fn)
	}
	var f AccessFact
	if c.pass.ImportObjectFact(fn, &f) {
		return f.Accesses
	}
	return nil
}

// ---------------------------------------------------------------------------
// Function body scanning
// ---------------------------------------------------------------------------

// calleeOf resolves a call to its *types.Func: static callees (including
// methods) through typeutil, interface methods through Uses. Builtins and
// truly dynamic calls (function values) return nil.
func (c *ctx) calleeOf(call *ast.CallExpr) *types.Func {
	if fn := driver.StaticCallee(c.pass.TypesInfo, call); fn != nil {
		return fn
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := c.pass.TypesInfo.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// scan walks one function (or closure) body, recording direct owned-state
// accesses, static calls, and spawned closures. Function literals passed to
// a `bftlint:runs` function are recorded for a separate check.
func (c *ctx) scan(body ast.Node, sum *summary) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := c.calleeOf(n)
			if callee == nil {
				return true
			}
			if c.runsOnWorker(callee) {
				c.scanCallSkippingLits(n, sum)
				return false
			}
			if c.ownerOf(callee) == shared {
				// owner=shared declares the callee safe from every domain: a
				// trust boundary, so its internal accesses do not propagate
				// to callers (the selector access is exempted separately).
				return true
			}
			sum.calls = append(sum.calls, callRec{fn: callee, pos: n.Pos()})
			return true
		case *ast.SelectorExpr:
			c.recordSelector(n, sum)
			return true
		}
		return true
	})
}

// scanCallSkippingLits scans the callee expression and non-literal
// arguments of call (they evaluate in the caller) and records each function
// literal argument as spawned.
func (c *ctx) scanCallSkippingLits(call *ast.CallExpr, sum *summary) {
	c.scan(call.Fun, sum)
	for _, a := range call.Args {
		if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			sum.spawns = append(sum.spawns, lit)
			continue
		}
		c.scan(a, sum)
	}
}

// recordSelector records x.f when f (or, for method selections, x's type)
// is owner-annotated.
func (c *ctx) recordSelector(sel *ast.SelectorExpr, sum *summary) {
	s := c.pass.TypesInfo.Selections[sel]
	if s == nil {
		return
	}
	qual := types.RelativeTo(c.pass.Pkg)
	switch s.Kind() {
	case types.FieldVal:
		obj := s.Obj()
		if c.ownerOf(obj) != "" {
			desc := strings.TrimPrefix(types.TypeString(deref(s.Recv()), qual), "*") + "." + obj.Name()
			c.addDirect(sum, Access{Desc: desc}, sel.Sel.Pos())
		}
	case types.MethodVal, types.MethodExpr:
		recv := deref(s.Recv())
		// A method-level owner annotation overrides the receiver type's:
		// owner=shared exempts the method, owner=eventloop owns it.
		d := c.ownerOf(s.Obj())
		if tn := typeNameOf(recv); d == "" && tn != nil {
			d = c.ownerOf(tn)
		}
		if d == eventloop {
			desc := "(" + types.TypeString(recv, qual) + ")." + s.Obj().Name()
			c.addDirect(sum, Access{Desc: desc}, sel.Sel.Pos())
		}
	}
}

func (c *ctx) addDirect(sum *summary, acc Access, pos token.Pos) {
	if len(sum.direct) >= maxAccesses {
		return
	}
	for _, a := range sum.direct {
		if a.Desc == acc.Desc {
			return
		}
	}
	sum.direct = append(sum.direct, acc)
	sum.pos = append(sum.pos, pos)
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

func typeNameOf(t types.Type) *types.TypeName {
	if n, ok := t.(interface{ Obj() *types.TypeName }); ok {
		return n.Obj()
	}
	return nil
}

// ---------------------------------------------------------------------------
// Propagation
// ---------------------------------------------------------------------------

// flatten computes the transitive access set of a locally declared
// function: its direct accesses plus, for every static callee, the
// callee's accesses with the call prepended to the chain. Cycles terminate
// through the onStack guard; results are memoized.
func (c *ctx) flatten(fn *types.Func) []Access {
	if flat, ok := c.flatMap[fn]; ok {
		return flat
	}
	if c.onStack[fn] {
		return nil
	}
	c.onStack[fn] = true
	defer delete(c.onStack, fn)

	sum := c.sums[fn]
	if sum == nil {
		return nil
	}
	out := make([]Access, 0, len(sum.direct))
	seen := make(map[string]bool)
	add := func(a Access) {
		if seen[a.Desc] || len(out) >= maxAccesses {
			return
		}
		seen[a.Desc] = true
		out = append(out, a)
	}
	for _, a := range sum.direct {
		add(a)
	}
	for _, call := range sum.calls {
		var calleeAcc []Access
		if _, local := c.decls[call.fn]; local {
			calleeAcc = c.flatten(call.fn)
		} else {
			var f AccessFact
			if call.fn.Pkg() != nil && call.fn.Pkg() != c.pass.Pkg &&
				c.pass.ImportObjectFact(call.fn, &f) {
				calleeAcc = f.Accesses
			}
		}
		for _, a := range calleeAcc {
			chained := a
			chained.Chain = append([]string{call.fn.Name()}, a.Chain...)
			add(chained)
		}
	}
	c.flatMap[fn] = out
	return out
}
