// Package taint implements bfttaint, the Byzantine-input taint analyzer of
// the bftlint suite.
//
// Every scalar field of a wire message (any struct with an unmarshalBody
// method) is attacker-controlled: a Byzantine sender can put any value in
// it, and the codec's sticky-error discipline only bounds slice LENGTHS
// (the maxSliceLen check in codec.go), not the integers the message
// carries. This analyzer generalizes that discipline to every consumer:
// an untrusted integer used as
//
//   - a slice/array index or slice bound,
//   - an allocation size (make len/cap),
//   - a loop bound, or
//   - a map key being INSERTED (unbounded map growth — each distinct
//     forged value permanently grows the map)
//
// is a finding unless the function bounds it first. A bound is any
// comparison mentioning the same expression (`if level >= leaf { return }`
// then indexing with level), a min/max clamp at the sink, or a modulo. A
// call boundary also clears taint: values returned by callees (like
// reader.sliceLen, which enforces maxSliceLen internally) are trusted —
// the callee is the audited sanitizer.
//
// Suppress a vetted site with `bftlint:allow=bfttaint`.
package taint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/driver"
)

// Name is the analyzer name, used in `bftlint:allow=` suppressions.
const Name = "bfttaint"

// Analyzer is the bfttaint analyzer. Its first run found four handlers
// (onViewChangeAck, onReplyStable, onRecoveryReply, the client's onReply)
// that keyed maps by a claimed replica ID without a range check, so a
// Byzantine peer could grow them without bound.
var Analyzer = &driver.Analyzer{
	Name: Name,
	Doc:  "flag untrusted wire-message integers used as index, allocation size, loop bound, or inserted map key without a bounds check",
	Run:  run,
}

// WireFact marks a named type as a wire message: its fields are
// attacker-controlled after decode.
type WireFact struct{}

func (*WireFact) AFact() {}

type checker struct {
	pass *driver.Pass
	wire map[*types.TypeName]bool
}

func run(pass *driver.Pass) error {
	c := &checker{pass: pass, wire: make(map[*types.TypeName]bool)}
	c.collect()

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The codec methods are the sanitizing boundary itself: they
			// read raw attacker bytes under the sliceLen/maxSliceLen
			// discipline that the rest of this analyzer assumes, and
			// tainting their own field stores would flag the sanitizer.
			if fd.Name.Name == "unmarshalBody" || fd.Name.Name == "marshalBody" {
				continue
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

// collect finds wire types (unmarshalBody methods), exporting facts for
// cross-package consumers.
func (c *checker) collect() {
	info := c.pass.TypesInfo
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name != "unmarshalBody" || fd.Recv == nil {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			if tn := receiverType(fn); tn != nil {
				c.wire[tn] = true
				c.pass.ExportObjectFact(tn, &WireFact{})
			}
		}
	}
}

func receiverType(fn *types.Func) *types.TypeName {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

func (c *checker) isWire(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	if c.wire[tn] {
		return true
	}
	if tn.Pkg() == nil || tn.Pkg() == c.pass.Pkg {
		return false
	}
	var f WireFact
	return c.pass.ImportObjectFact(tn, &f)
}

// isIntegerish reports whether t's underlying type is an integer kind
// (including named types like message.Seq and message.NodeID).
func isIntegerish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// funcState is the per-function taint context.
type funcState struct {
	c      *checker
	info   *types.Info
	locals map[types.Object]bool // locals assigned from tainted expressions
	guards map[string]bool       // canonical exprs mentioned in a comparison
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	fs := &funcState{
		c:      c,
		info:   c.pass.TypesInfo,
		locals: make(map[types.Object]bool),
		guards: make(map[string]bool),
	}

	// Guard pass: any relational comparison anywhere in the function counts
	// as a bounds check for the expressions it mentions. This is
	// deliberately flow-insensitive — a lint, not a verifier: the point is
	// that SOME check exists to audit, not to prove dominance. For-loop
	// conditions are excluded: `i < m.Count` is the loop-bound SINK, and
	// letting it guard its own operands would make that sink unreachable.
	selfGuards := make(map[*ast.BinaryExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if f, ok := n.(*ast.ForStmt); ok {
			if be, ok := f.Cond.(*ast.BinaryExpr); ok {
				selfGuards[be] = true
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || selfGuards[be] {
			return true
		}
		switch be.Op {
		case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
			fs.guards[fs.canonical(be.X)] = true
			fs.guards[fs.canonical(be.Y)] = true
		}
		return true
	})

	// Taint pass: locals assigned from tainted expressions, to fixed point.
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := ast.Unparen(lhs).(*ast.Ident)
				if !ok {
					continue
				}
				obj := fs.info.Defs[id]
				if obj == nil {
					obj = fs.info.Uses[id]
				}
				if obj == nil || fs.locals[obj] {
					continue
				}
				if fs.tainted(as.Rhs[i]) {
					fs.locals[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	// Sink pass.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				fs.checkMapStore(ast.Unparen(lhs))
			}
		case *ast.IncDecStmt:
			fs.checkMapStore(ast.Unparen(n.X))
		case *ast.IndexExpr:
			xt := fs.info.TypeOf(n.X)
			if xt == nil {
				return true
			}
			switch xt.Underlying().(type) {
			case *types.Slice, *types.Array, *types.Pointer, *types.Basic:
				if fs.taintedUnguarded(n.Index) {
					fs.c.pass.Reportf(n.Index.Pos(),
						"untrusted wire value %s used as an index without a bounds check; a Byzantine sender picks it — compare it against a local bound first",
						types.ExprString(n.Index))
				}
			}
		case *ast.SliceExpr:
			for _, b := range []ast.Expr{n.Low, n.High, n.Max} {
				if b != nil && fs.taintedUnguarded(b) {
					fs.c.pass.Reportf(b.Pos(),
						"untrusted wire value %s used as a slice bound without a bounds check",
						types.ExprString(b))
				}
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && fs.info.Uses[id] == types.Universe.Lookup("make") {
				for _, a := range n.Args[1:] {
					if fs.taintedUnguarded(a) {
						fs.c.pass.Reportf(a.Pos(),
							"untrusted wire value %s used as an allocation size; a Byzantine sender can demand gigabytes — clamp it like codec.go's maxSliceLen first",
							types.ExprString(a))
					}
				}
			}
		case *ast.ForStmt:
			if be, ok := n.Cond.(*ast.BinaryExpr); ok {
				for _, op := range []ast.Expr{be.X, be.Y} {
					// The condition itself is excluded from the guard set
					// above; only a SEPARATE comparison or clamp counts.
					if fs.taintedUnguarded(op) {
						fs.c.pass.Reportf(op.Pos(),
							"untrusted wire value %s bounds this loop; a Byzantine sender picks the trip count — clamp it first",
							types.ExprString(op))
					}
				}
			}
		}
		return true
	})
}

// checkMapStore reports an assignment target m[k] on a map type whose key
// is tainted and unguarded — the unbounded-growth sink.
func (fs *funcState) checkMapStore(lhs ast.Expr) {
	idx, ok := lhs.(*ast.IndexExpr)
	if !ok {
		return
	}
	xt := fs.info.TypeOf(idx.X)
	if xt == nil {
		return
	}
	if _, isMap := xt.Underlying().(*types.Map); !isMap {
		return
	}
	if fs.taintedUnguarded(idx.Index) {
		fs.c.pass.Reportf(idx.Index.Pos(),
			"untrusted wire value %s inserted as a map key without validation; each forged value grows the map permanently (unbounded-growth DoS) — validate it against the membership it claims first",
			types.ExprString(idx.Index))
	}
}

// tainted reports whether expr carries an attacker-controlled integer.
func (fs *funcState) tainted(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := fs.info.Uses[e]
		if obj == nil {
			obj = fs.info.Defs[e]
		}
		return fs.locals[obj]
	case *ast.SelectorExpr:
		sel := fs.info.Selections[e]
		if sel == nil || sel.Kind() != types.FieldVal {
			return false
		}
		if !isIntegerish(sel.Obj().Type()) {
			return false
		}
		return fs.c.isWire(fs.info.TypeOf(e.X))
	case *ast.CallExpr:
		// Conversion: int(m.Level) stays tainted. A call's result is
		// trusted: the callee is the sanitizing boundary.
		if tv, ok := fs.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return fs.tainted(e.Args[0])
		}
		return false
	case *ast.BinaryExpr:
		if e.Op == token.REM {
			return false // modulo bounds the result
		}
		return fs.tainted(e.X) || fs.tainted(e.Y)
	case *ast.UnaryExpr:
		return fs.tainted(e.X)
	}
	return false
}

// taintedUnguarded reports taint with no visible bounds check: neither a
// comparison mentioning the canonical expression nor a min/max clamp form.
func (fs *funcState) taintedUnguarded(expr ast.Expr) bool {
	return fs.tainted(expr) && !fs.clamped(expr)
}

// clamped reports whether a bound is visibly applied to expr: the function
// compares its canonical form somewhere, or the expr is itself a min/max
// call over a trusted bound.
func (fs *funcState) clamped(expr ast.Expr) bool {
	if fs.guards[fs.canonical(expr)] {
		return true
	}
	if call, ok := ast.Unparen(expr).(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if obj := fs.info.Uses[id]; obj == types.Universe.Lookup("min") || obj == types.Universe.Lookup("max") {
				return true
			}
		}
	}
	return false
}

// canonical renders an expression with parens and type conversions
// stripped, so `int(m.Level)` and `(m.Level)` guard each other.
func (fs *funcState) canonical(expr ast.Expr) string {
	e := ast.Unparen(expr)
	if call, ok := e.(*ast.CallExpr); ok && len(call.Args) == 1 {
		if tv, ok := fs.info.Types[call.Fun]; ok && tv.IsType() {
			return fs.canonical(call.Args[0])
		}
	}
	return types.ExprString(e)
}
