// Package owner implements bftowner, the ownership analyzer of the bftlint
// suite: it machine-checks the replica's goroutine-ownership contract that
// PRs 1-3 established and that the safety argument of Castro & Liskov
// (§4.2) silently assumes — protocol and execution state (Region,
// checkpoint manager, reply cache) are event-loop-owned, the WAL writer
// goroutine owns its segment files, and the transport receive goroutines
// (where ingress verification runs) touch neither.
//
// The rules are declared with the annotation grammar of internal/lint/doc.go:
//
//   - `bftlint:owner=<domain>` on a struct type or field marks state owned
//     by one goroutine domain (eventloop, executor) or explicitly safe for
//     cross-domain use (shared: channels, atomics, immutable config).
//   - `bftlint:entrypoint=<domain>` on a function declares that its body
//     runs in that domain (a receive-goroutine callback, the executor loop).
//   - `bftlint:rendezvous` on a function declares that closures passed to
//     it run with mutual exclusion against every owner, so their bodies are
//     exempt.
//   - `bftlint:runs=<domain>` on a function declares that function-literal
//     arguments execute in that domain (transport attach handlers, pool
//     sinks); their bodies are checked under it.
//
// The analyzer computes, per function, the set of owned state reachable
// through static calls (propagated across packages via facts) and reports
// any entrypoint whose domain is not allowed to touch what it reaches.
// Dynamic dispatch through interfaces is invisible to the call graph;
// closing that hole is exactly what entrypoint annotations on the concrete
// implementations (sealer.Seal, verifier.Verify) are for.
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

// Analyzer is the bftowner analysis.
var Analyzer = &driver.Analyzer{
	Name: Name,
	Doc:  "check goroutine-ownership annotations: worker/executor entry points must not reach state owned by another domain outside a rendezvous",
	Run:  run,
}

// OwnerFact marks a type or struct field as owned by a goroutine domain.
type OwnerFact struct{ Domain string }

// CtxFact marks a function as an entry point executing in a domain.
type CtxFact struct{ Domain string }

// RendFact marks a function as a rendezvous: closures passed to it run
// serialized with every owner.
type RendFact struct{}

// RunsFact marks a function whose function-literal arguments execute in
// Domain.
type RunsFact struct{ Domain string }

// Access is one reachable touch of owned state.
type Access struct {
	Owner string   // owning domain
	Desc  string   // e.g. "(*statemachine.Region).Modify" or "pbft.Replica.queue"
	Chain []string // call path (function names) from the summarized function
}

// AccessFact summarizes the owned state a function reaches, for
// cross-package propagation.
type AccessFact struct{ Accesses []Access }

func (*OwnerFact) AFact()  {}
func (*CtxFact) AFact()    {}
func (*RendFact) AFact()   {}
func (*RunsFact) AFact()   {}
func (*AccessFact) AFact() {}

// ownerDomains are the values owner= accepts; ctxDomains the execution
// domains entrypoint=/runs= accept.
var (
	ownerDomains = map[string]bool{"eventloop": true, "executor": true, "worker": true, "shared": true}
	ctxDomains   = map[string]bool{"eventloop": true, "executor": true, "worker": true}
)

// allowed reports whether code running in domain ctx may touch state owned
// by owner. A domain owns its own state; everything else needs a rendezvous.
func allowed(ctx, owner string) bool { return ctx == owner }

// maxAccesses caps per-function summaries so facts stay small.
const maxAccesses = 64

type ctx struct {
	pass *driver.Pass

	localOwner map[types.Object]string // annotated types and fields, this package
	localCtx   map[*types.Func]string
	localRend  map[*types.Func]bool
	localRuns  map[*types.Func]string

	decls   map[*types.Func]*ast.FuncDecl
	sums    map[*types.Func]*summary
	flatMap map[*types.Func][]Access
	onStack map[*types.Func]bool
}

type callRec struct {
	fn  *types.Func
	pos token.Pos
}

type spawnRec struct {
	lit    *ast.FuncLit
	domain string
}

type summary struct {
	direct []Access // Chain empty; pos in directPos
	pos    []token.Pos
	calls  []callRec
	spawns []spawnRec
}

func run(pass *driver.Pass) error {
	c := &ctx{
		pass:       pass,
		localOwner: make(map[types.Object]string),
		localCtx:   make(map[*types.Func]string),
		localRend:  make(map[*types.Func]bool),
		localRuns:  make(map[*types.Func]string),
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
		domain := c.ctxDomainOf(fn)
		if domain == "" {
			continue
		}
		fd := c.decls[fn]
		sum := c.sums[fn]
		c.checkReach(domain, fn.Name(), fd.Name.Pos(), sum)
	}
	// Check closures spawned into a domain (bftlint:runs) from any local
	// function, including transitively spawned ones.
	for _, fn := range fns {
		c.checkSpawns(c.sums[fn])
	}
	return nil
}

// checkReach reports every access in sum (flattened) that domain may not
// touch.
func (c *ctx) checkReach(domain, label string, fallbackPos token.Pos, sum *summary) {
	for i, acc := range sum.direct {
		if allowed(domain, acc.Owner) {
			continue
		}
		pos := sum.pos[i]
		if !pos.IsValid() {
			pos = fallbackPos
		}
		c.report(pos, domain, label, acc)
	}
	for _, call := range sum.calls {
		for _, acc := range c.accessesOf(call.fn) {
			if allowed(domain, acc.Owner) {
				continue
			}
			chained := acc
			chained.Chain = append([]string{call.fn.Name()}, acc.Chain...)
			c.report(call.pos, domain, label, chained)
		}
	}
}

// checkSpawns checks every bftlint:runs closure recorded in sum under its
// declared domain, recursing into the closures' own spawns.
func (c *ctx) checkSpawns(sum *summary) {
	for _, sp := range sum.spawns {
		inner := &summary{}
		c.scan(sp.lit.Body, inner)
		c.checkReach(sp.domain, "closure", sp.lit.Pos(), inner)
		c.checkSpawns(inner)
	}
}

func (c *ctx) report(pos token.Pos, domain, label string, acc Access) {
	via := ""
	if len(acc.Chain) > 0 {
		via = " via " + strings.Join(acc.Chain, " -> ")
	}
	c.pass.Reportf(pos,
		"%s-context %s reaches %s-owned %s%s; only the %s goroutine may touch it outside a bftlint:rendezvous",
		domain, label, acc.Owner, acc.Desc, via, acc.Owner)
}

// ---------------------------------------------------------------------------
// Annotation collection
// ---------------------------------------------------------------------------

func (c *ctx) collectAnnotations() {
	info := c.pass.TypesInfo
	for _, f := range c.pass.Files {
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
	if hasStruct && !ownerDomains[structDomain] {
		c.pass.Reportf(ts.Pos(), "bftlint: unknown owner domain %q (want eventloop, executor, worker, or shared)", structDomain)
		hasStruct = false
	}
	tn, _ := info.Defs[ts.Name].(*types.TypeName)
	if hasStruct && structDomain != "shared" && tn != nil {
		c.localOwner[tn] = structDomain
	}
	st, isStruct := ts.Type.(*ast.StructType)
	if !isStruct {
		return
	}
	for _, field := range st.Fields.List {
		fds := annot.FieldDirectives(field)
		domain, has := annot.Value(fds, "owner")
		if has && !ownerDomains[domain] {
			c.pass.Reportf(field.Pos(), "bftlint: unknown owner domain %q (want eventloop, executor, worker, or shared)", domain)
			has = false
		}
		if !has {
			if !hasStruct {
				continue
			}
			domain = structDomain
		}
		if domain == "shared" {
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
		if !ownerDomains[d] {
			c.pass.Reportf(fd.Pos(), "bftlint: unknown owner domain %q (want eventloop, executor, worker, or shared)", d)
		} else {
			c.localOwner[fn] = d
		}
	}
	if d, has := annot.Value(ds, "entrypoint"); has {
		if !ctxDomains[d] {
			c.pass.Reportf(fd.Pos(), "bftlint: unknown entrypoint domain %q (want eventloop, executor, or worker)", d)
		} else {
			c.localCtx[fn] = d
		}
	}
	if annot.Has(ds, "rendezvous") {
		c.localRend[fn] = true
	}
	if d, has := annot.Value(ds, "runs"); has {
		if !ctxDomains[d] {
			c.pass.Reportf(fd.Pos(), "bftlint: unknown runs domain %q (want eventloop, executor, or worker)", d)
		} else {
			c.localRuns[fn] = d
		}
	}
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
					if annot.Has(ds, "rendezvous") {
						c.localRend[fn] = true
					}
					if d, has := annot.Value(ds, "runs"); has && ctxDomains[d] {
						c.localRuns[fn] = d
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
	for fn, domain := range c.localCtx {
		c.pass.ExportObjectFact(fn, &CtxFact{Domain: domain})
	}
	for fn := range c.localRend {
		c.pass.ExportObjectFact(fn, &RendFact{})
	}
	for fn, domain := range c.localRuns {
		c.pass.ExportObjectFact(fn, &RunsFact{Domain: domain})
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

func (c *ctx) ctxDomainOf(fn *types.Func) string {
	if d, ok := c.localCtx[fn]; ok {
		return d
	}
	return ""
}

func (c *ctx) isRend(fn *types.Func) bool {
	if c.localRend[fn] {
		return true
	}
	if fn.Pkg() == nil || fn.Pkg() == c.pass.Pkg {
		return false
	}
	var f RendFact
	return c.pass.ImportObjectFact(fn, &f)
}

func (c *ctx) runsDomainOf(fn *types.Func) string {
	if d, ok := c.localRuns[fn]; ok {
		return d
	}
	if fn.Pkg() == nil || fn.Pkg() == c.pass.Pkg {
		return ""
	}
	var f RunsFact
	if c.pass.ImportObjectFact(fn, &f) {
		return f.Domain
	}
	return ""
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
// a rendezvous are skipped entirely; literals passed to a bftlint:runs
// function are recorded for a separate check under that domain.
func (c *ctx) scan(body ast.Node, sum *summary) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			callee := c.calleeOf(n)
			if callee == nil {
				return true
			}
			if c.isRend(callee) {
				c.scanCallSkippingLits(n, sum, nil)
				return false
			}
			if d := c.runsDomainOf(callee); d != "" {
				c.scanCallSkippingLits(n, sum, func(lit *ast.FuncLit) {
					sum.spawns = append(sum.spawns, spawnRec{lit: lit, domain: d})
				})
				return false
			}
			if c.ownerOf(callee) == "shared" {
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
// arguments of call (they evaluate in the caller), skipping function
// literal arguments; spawn, when non-nil, receives each skipped literal.
func (c *ctx) scanCallSkippingLits(call *ast.CallExpr, sum *summary, spawn func(*ast.FuncLit)) {
	c.scan(call.Fun, sum)
	for _, a := range call.Args {
		if lit, ok := ast.Unparen(a).(*ast.FuncLit); ok {
			if spawn != nil {
				spawn(lit)
			}
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
		if d := c.ownerOf(obj); d != "" {
			desc := strings.TrimPrefix(types.TypeString(deref(s.Recv()), qual), "*") + "." + obj.Name()
			c.addDirect(sum, Access{Owner: d, Desc: desc}, sel.Sel.Pos())
		}
	case types.MethodVal, types.MethodExpr:
		recv := deref(s.Recv())
		// A method-level owner annotation overrides the receiver type's:
		// owner=shared exempts the method, any other domain re-owns it.
		if d := c.ownerOf(s.Obj()); d != "" {
			if d != "shared" {
				desc := "(" + types.TypeString(recv, qual) + ")." + s.Obj().Name()
				c.addDirect(sum, Access{Owner: d, Desc: desc}, sel.Sel.Pos())
			}
			return
		}
		tn := typeNameOf(recv)
		if tn == nil {
			return
		}
		if d := c.ownerOf(tn); d != "" {
			desc := "(" + types.TypeString(recv, qual) + ")." + s.Obj().Name()
			c.addDirect(sum, Access{Owner: d, Desc: desc}, sel.Sel.Pos())
		}
	}
}

func (c *ctx) addDirect(sum *summary, acc Access, pos token.Pos) {
	if len(sum.direct) >= maxAccesses {
		return
	}
	for _, a := range sum.direct {
		if a.Owner == acc.Owner && a.Desc == acc.Desc {
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
		key := a.Owner + "\x00" + a.Desc
		if seen[key] || len(out) >= maxAccesses {
			return
		}
		seen[key] = true
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
