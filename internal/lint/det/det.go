// Package det implements the determinism analyzers of the bftlint suite.
// Seeded-simnet reproducibility (and, per §4.4, replica-coordinated
// behavior like replier selection) dies by a thousand nondeterminism cuts;
// these three analyzers target the cuts this repo has actually bled from:
//
//   - bftrand: package-global math/rand (and math/rand/v2) functions draw
//     from a process-global, unseeded-per-replica stream. Every draw must
//     go through a per-replica *rand.Rand (replica.go seeds one from the
//     cluster seed + replica ID).
//   - bfttime: functions annotated `bftlint:deterministic` — decision
//     paths that must compute identically on every replica and every
//     seeded run — must not reach time.Now/Since/Until (transitively).
//     Time enters those paths only as explicit parameters fed by the
//     simnet clock.
//   - bftmaporder: ranging over a map feeds Go's randomized iteration
//     order into the result when the body either emits messages
//     (calls a `bftlint:send` function — relative send order hits the
//     wire) or selects a winner (early exit with the key/value escaping).
//     The PR 4 fetch-retry bug was exactly this; iterate sorted keys.
package det

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/annot"
	"repro/internal/lint/driver"
)

// Analyzer names, used in `bftlint:allow=` suppressions.
const (
	RandName     = "bftrand"
	TimeName     = "bfttime"
	MapOrderName = "bftmaporder"
)

// ---------------------------------------------------------------------------
// bftrand
// ---------------------------------------------------------------------------

// RandAnalyzer flags package-global math/rand use.
var RandAnalyzer = &driver.Analyzer{
	Name: RandName,
	Doc:  "flag package-global math/rand functions; replicas must draw from a per-replica seeded source",
	Run:  runRand,
}

// randConstructors are the package-level functions that build an explicit
// source rather than drawing from the global one.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewPCG": true,
	"NewChaCha8": true, "NewZipf": true,
}

func runRand(pass *driver.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				checkRand(pass, sel)
			}
			return true
		})
	}
	return nil
}

// checkRand reports sel if it names a package-global math/rand draw.
func checkRand(pass *driver.Pass, sel *ast.SelectorExpr) {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return
	}
	pkg, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	if !ok {
		return
	}
	path := pkg.Imported().Path()
	if path != "math/rand" && path != "math/rand/v2" {
		return
	}
	if _, isFunc := pass.TypesInfo.Uses[sel.Sel].(*types.Func); !isFunc {
		return // types like rand.Rand, rand.Source
	}
	if randConstructors[sel.Sel.Name] {
		return
	}
	pass.Reportf(sel.Sel.Pos(),
		"package-global %s.%s draws from the shared process stream; use the per-replica seeded *rand.Rand so seeded runs stay reproducible",
		pkg.Name(), sel.Sel.Name)
}

// ---------------------------------------------------------------------------
// bfttime
// ---------------------------------------------------------------------------

// TimeAnalyzer checks bftlint:deterministic functions against wall-clock
// reads.
var TimeAnalyzer = &driver.Analyzer{
	Name: TimeName,
	Doc:  "flag bftlint:deterministic decision paths that reach time.Now/Since/Until",
	Run:  runTime,
}

// TimeFact marks a function that (transitively) reads the wall clock,
// recording one witness path for diagnostics.
type TimeFact struct {
	Desc  string   // e.g. "time.Now"
	Chain []string // call path from the function to the read
}

func (*TimeFact) AFact() {}

// wallClockFuncs are the time package reads that break determinism.
var wallClockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

type timeSummary struct {
	desc  string // direct wall-clock read, if any
	pos   token.Pos
	calls []struct {
		fn  *types.Func
		pos token.Pos
	}
}

type timeChecker struct {
	pass  *driver.Pass
	decls map[*types.Func]*ast.FuncDecl
	sums  map[*types.Func]*timeSummary
	memo  map[*types.Func]*TimeFact
	stack map[*types.Func]bool
	det   map[*types.Func]token.Pos
}

func runTime(pass *driver.Pass) error {
	c := &timeChecker{
		pass:  pass,
		decls: make(map[*types.Func]*ast.FuncDecl),
		sums:  make(map[*types.Func]*timeSummary),
		memo:  make(map[*types.Func]*TimeFact),
		stack: make(map[*types.Func]bool),
		det:   make(map[*types.Func]token.Pos),
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			c.decls[fn] = fd
			if annot.Has(annot.FuncDirectives(fd), "deterministic") {
				c.det[fn] = fd.Name.Pos()
			}
			c.sums[fn] = c.summarize(fd)
		}
	}

	// Export facts for every local clock-reader, then check the annotated
	// deterministic functions.
	for fn := range c.decls {
		if w := c.witness(fn); w != nil {
			c.pass.ExportObjectFact(fn, w)
		}
	}
	for fn, pos := range c.det {
		w := c.witness(fn)
		if w == nil {
			continue
		}
		// Report at the first hop when the read is reachable via a call;
		// the chain names the rest.
		rpos := pos
		if sum := c.sums[fn]; sum != nil {
			if sum.desc != "" {
				rpos = sum.pos
			} else if len(w.Chain) > 0 {
				for _, call := range sum.calls {
					if call.fn.Name() == w.Chain[0] {
						rpos = call.pos
						break
					}
				}
			}
		}
		via := ""
		if len(w.Chain) > 0 {
			via = " via " + strings.Join(w.Chain, " -> ")
		}
		pass.Reportf(rpos,
			"bftlint:deterministic %s reaches %s%s; wall-clock reads diverge across replicas and seeded runs — take time as a parameter",
			fn.Name(), w.Desc, via)
	}
	return nil
}

func (c *timeChecker) summarize(fd *ast.FuncDecl) *timeSummary {
	sum := &timeSummary{}
	info := c.pass.TypesInfo
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := driver.StaticCallee(info, call)
		if fn == nil {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				fn, _ = info.Uses[sel.Sel].(*types.Func)
			}
		}
		if fn == nil {
			return true
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "time" && wallClockFuncs[fn.Name()] {
			if sum.desc == "" {
				sum.desc, sum.pos = "time."+fn.Name(), call.Pos()
			}
			return true
		}
		sum.calls = append(sum.calls, struct {
			fn  *types.Func
			pos token.Pos
		}{fn, call.Pos()})
		return true
	})
	return sum
}

// witness returns how fn reaches the wall clock, or nil.
func (c *timeChecker) witness(fn *types.Func) *TimeFact {
	if w, ok := c.memo[fn]; ok {
		return w
	}
	if c.stack[fn] {
		return nil
	}
	c.stack[fn] = true
	defer delete(c.stack, fn)

	sum := c.sums[fn]
	if sum == nil {
		// Not declared here: consult facts.
		if fn.Pkg() != nil && fn.Pkg() != c.pass.Pkg {
			var f TimeFact
			if c.pass.ImportObjectFact(fn, &f) {
				return &f
			}
		}
		return nil
	}
	var w *TimeFact
	if sum.desc != "" {
		w = &TimeFact{Desc: sum.desc}
	} else {
		for _, call := range sum.calls {
			if cw := c.witness(call.fn); cw != nil {
				w = &TimeFact{Desc: cw.Desc, Chain: append([]string{call.fn.Name()}, cw.Chain...)}
				break
			}
		}
	}
	c.memo[fn] = w
	return w
}

// ---------------------------------------------------------------------------
// bftmaporder
// ---------------------------------------------------------------------------

// MapOrderAnalyzer flags map iteration feeding message emission or
// selection.
var MapOrderAnalyzer = &driver.Analyzer{
	Name: MapOrderName,
	Doc:  "flag map-range loops whose randomized order reaches the wire (bftlint:send in body) or selects a winner (early exit with escaping key/value)",
	Run:  runMapOrder,
}

// SendFact marks a function that emits protocol messages; calling it under
// a map range puts iteration order on the wire.
type SendFact struct{}

func (*SendFact) AFact() {}

type mapChecker struct {
	pass  *driver.Pass
	sends map[*types.Func]bool
}

func runMapOrder(pass *driver.Pass) error {
	c := &mapChecker{pass: pass, sends: make(map[*types.Func]bool)}
	c.collectSends()

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if rs, ok := n.(*ast.RangeStmt); ok {
				if t := pass.TypesInfo.TypeOf(rs.X); t != nil {
					if _, isMap := t.Underlying().(*types.Map); isMap {
						c.checkRange(rs)
					}
				}
			}
			return true
		})
	}
	return nil
}

func (c *mapChecker) collectSends() {
	info := c.pass.TypesInfo
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if annot.Has(annot.FuncDirectives(d), "send") {
					if fn, ok := info.Defs[d.Name].(*types.Func); ok {
						c.sends[fn] = true
						c.pass.ExportObjectFact(fn, &SendFact{})
					}
				}
			case *ast.GenDecl:
				ast.Inspect(d, func(n ast.Node) bool {
					it, ok := n.(*ast.InterfaceType)
					if !ok {
						return true
					}
					for _, m := range it.Methods.List {
						if !annot.Has(annot.FieldDirectives(m), "send") {
							continue
						}
						for _, name := range m.Names {
							if fn, ok := info.Defs[name].(*types.Func); ok {
								c.sends[fn] = true
								c.pass.ExportObjectFact(fn, &SendFact{})
							}
						}
					}
					return true
				})
			}
		}
	}
}

func (c *mapChecker) isSend(fn *types.Func) bool {
	if c.sends[fn] {
		return true
	}
	if fn.Pkg() == nil || fn.Pkg() == c.pass.Pkg {
		return false
	}
	var f SendFact
	return c.pass.ImportObjectFact(fn, &f)
}

func (c *mapChecker) checkRange(rs *ast.RangeStmt) {
	info := c.pass.TypesInfo

	// Rule a: a send inside the body — iteration order becomes wire order.
	var sendCall *ast.CallExpr
	var sendName string
	inspectSkippingFuncLits(rs.Body, func(n ast.Node) bool {
		if sendCall != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := driver.StaticCallee(info, call)
		if fn == nil {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				fn, _ = info.Uses[sel.Sel].(*types.Func)
			}
		}
		if fn != nil && c.isSend(fn) {
			sendCall, sendName = call, fn.Name()
			return false
		}
		return true
	})
	if sendCall != nil {
		c.pass.Reportf(sendCall.Pos(),
			"%s emits messages inside a map range: iteration order reaches the wire; collect and sort the keys first", sendName)
	}

	// Rule b: selection — an early exit plus the key/value escaping the
	// loop means map order picked the winner.
	kv := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := info.Defs[id]; obj != nil {
				kv[obj] = true
			}
		}
	}
	if len(kv) == 0 {
		return
	}
	if !hasEarlyExit(rs.Body) {
		return
	}
	var escape ast.Node
	inspectSkippingFuncLits(rs.Body, func(n ast.Node) bool {
		if escape != nil {
			return false
		}
		switch n := n.(type) {
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesAny(info, res, kv) {
					escape = n
					return false
				}
			}
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) && len(n.Rhs) != 1 {
					break
				}
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := info.Uses[id] // plain =, target declared outside
				if obj == nil || obj.Pos() >= rs.Pos() && obj.Pos() <= rs.End() {
					continue
				}
				rhs := n.Rhs[0]
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				if usesAny(info, rhs, kv) {
					escape = n
					return false
				}
			}
		}
		return true
	})
	if escape != nil {
		c.pass.Reportf(escape.Pos(),
			"map iteration order selects this result (early exit with escaping key/value); iterate sorted keys so every replica picks the same winner")
	}
}

// hasEarlyExit reports whether the loop body can exit before visiting every
// element: a return anywhere, or a break binding to this loop (breaks
// inside nested loops, switches, and selects bind to those instead).
func hasEarlyExit(body *ast.BlockStmt) bool {
	found := false
	var walk func(n ast.Node, breakable bool)
	walk = func(n ast.Node, breakable bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if found {
				return false
			}
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				found = true
				return false
			case *ast.BranchStmt:
				if n.Tok == token.BREAK && breakable {
					// Unlabeled break to this loop (labels would name an
					// outer statement; treat any labeled break as exiting).
					found = true
				}
				return false
			case *ast.ForStmt:
				walk(n.Body, false)
				return false
			case *ast.RangeStmt:
				walk(n.Body, false)
				return false
			case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
				// break binds to these; returns inside still count.
				walkInner(n, &found)
				return false
			}
			return true
		})
	}
	walk(body, true)
	return found
}

// walkInner scans switch/select bodies for returns only.
func walkInner(n ast.Node, found *bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if *found {
			return false
		}
		switch n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			*found = true
			return false
		case *ast.ForStmt, *ast.RangeStmt:
			return false
		}
		return true
	})
}

func usesAny(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	used := false
	ast.Inspect(e, func(n ast.Node) bool {
		if used {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Uses[id]; obj != nil && objs[obj] {
				used = true
				return false
			}
		}
		return true
	})
	return used
}

// inspectSkippingFuncLits walks n without descending into function
// literals (their bodies run later, in a different dynamic context).
func inspectSkippingFuncLits(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		return f(n)
	})
}
