// Package alias implements bftalias, which flags the bug class behind the
// PR 2 buildViewChange regression: a caller-provided slice or map stored
// into a long-lived protocol structure without a deep copy. The caller
// keeps its reference, later mutates (append, re-slice, reuse), and the
// "immutable" protocol record changes under an active certificate.
//
// Types that outlive a call are marked `bftlint:longlived` (protocol
// state, certificate logs, caches). Within any function, an expression is
// *derived* from the caller if it is a non-receiver parameter of slice,
// map, or pointer type, a sub-slice / element / field of one, a local
// carrying one, or a composite literal embedding one. Storing a derived
// expression of slice or map type into a field or map of a long-lived
// value is reported unless the write is acknowledged with
// `bftlint:deepcopy` (an alias for allow=bftalias). Storing a derived
// pointer itself is not reported: handlers own their message objects after
// dispatch, and the bug class is retained slice/map backing memory (the
// qset field of a view-change message, not the message).
//
// Freshness heuristics: composite literals are fresh iff their elements
// are; `append` is derived iff its first argument is; any other call
// result (clones, marshals, constructors) counts as fresh.
package alias

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/annot"
	"repro/internal/lint/driver"
)

// Name is the analyzer name, used in `bftlint:allow=` suppressions
// (spelling `bftlint:deepcopy` is the idiomatic acknowledgment).
const Name = "bftalias"

// Analyzer is the bftalias analysis.
var Analyzer = &driver.Analyzer{
	Name: Name,
	Doc:  "flag caller-provided slices/maps stored into bftlint:longlived structs without a deep copy",
	Run:  run,
}

// LonglivedFact marks a type whose values outlive the calls that populate
// them, so storing caller memory into them is aliasing.
type LonglivedFact struct{}

func (*LonglivedFact) AFact() {}

type checker struct {
	pass      *driver.Pass
	longlived map[*types.TypeName]bool // this package's annotations
}

func run(pass *driver.Pass) error {
	c := &checker{pass: pass, longlived: make(map[*types.TypeName]bool)}
	c.collect()

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
	}
	return nil
}

func (c *checker) collect() {
	info := c.pass.TypesInfo
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if !annot.Has(annot.TypeDirectives(gd, ts), "longlived") {
					continue
				}
				if tn, ok := info.Defs[ts.Name].(*types.TypeName); ok {
					c.longlived[tn] = true
					c.pass.ExportObjectFact(tn, &LonglivedFact{})
				}
			}
		}
	}
}

func (c *checker) isLonglived(tn *types.TypeName) bool {
	if tn == nil {
		return false
	}
	if c.longlived[tn] {
		return true
	}
	if tn.Pkg() == nil || tn.Pkg() == c.pass.Pkg {
		return false
	}
	var f LonglivedFact
	return c.pass.ImportObjectFact(tn, &f)
}

// checkFunc runs the derived-value dataflow over one function body.
// Statements are visited in source order, which is a sound-enough
// approximation for straight-line assignment propagation.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	derived := make(map[types.Object]bool)
	info := c.pass.TypesInfo
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				obj := info.Defs[name]
				if obj == nil {
					continue
				}
				if seedable(obj.Type()) {
					derived[obj] = true
				}
			}
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		if len(as.Lhs) != len(as.Rhs) {
			return true // multi-value call or comma-ok: results are fresh
		}
		for i, lhs := range as.Lhs {
			rhs := as.Rhs[i]
			isDerived := c.derivedExpr(rhs, derived)
			// Propagate through plain local assignments.
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if obj := objOf(info, id); obj != nil {
					derived[obj] = isDerived
				}
				continue
			}
			if !isDerived {
				continue
			}
			// Only slice/map stores retain caller backing memory; storing a
			// derived pointer (a whole message object) is ownership handoff.
			if tv, ok := info.Types[rhs]; !ok || !aliasable(tv.Type) {
				continue
			}
			if pos, desc, hit := c.longlivedTarget(lhs); hit {
				c.pass.Reportf(pos,
					"caller-provided slice/map stored into long-lived %s without a deep copy; the caller retains a mutable reference (copy it, or acknowledge with bftlint:deepcopy)",
					desc)
			}
		}
		return true
	})
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// aliasable reports whether a stored value of type t retains caller
// backing memory.
func aliasable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// seedable reports whether a parameter of type t can carry caller memory
// reachable through field/index/slice chains (and so seeds the derived
// set).
func seedable(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Map, *types.Pointer:
		return true
	}
	return false
}

// derivedExpr reports whether e may alias caller-provided memory.
func (c *checker) derivedExpr(e ast.Expr, derived map[types.Object]bool) bool {
	info := c.pass.TypesInfo
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := objOf(info, e)
		return obj != nil && derived[obj]
	case *ast.SliceExpr:
		return c.derivedExpr(e.X, derived)
	case *ast.IndexExpr:
		return c.derivedExpr(e.X, derived)
	case *ast.SelectorExpr:
		// A field of a derived value is derived; package-qualified idents
		// and fields of owned state are not caller memory.
		if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
			return c.derivedExpr(e.X, derived)
		}
		return false
	case *ast.UnaryExpr:
		return c.derivedExpr(e.X, derived)
	case *ast.StarExpr:
		return c.derivedExpr(e.X, derived)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if c.derivedExpr(el, derived) {
				return true
			}
		}
		return false
	case *ast.CallExpr:
		// append keeps its first argument's backing array; conversions
		// keep their operand; everything else (clones, constructors,
		// marshals) returns fresh memory.
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && info.Uses[id] == types.Universe.Lookup("append") {
			return len(e.Args) > 0 && c.derivedExpr(e.Args[0], derived)
		}
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() {
			return len(e.Args) == 1 && c.derivedExpr(e.Args[0], derived)
		}
		return false
	}
	return false
}

// longlivedTarget reports whether lhs writes into a field or map of a
// long-lived value, returning a position and description for the report.
func (c *checker) longlivedTarget(lhs ast.Expr) (pos token.Pos, desc string, hit bool) {
	info := c.pass.TypesInfo
	for {
		switch e := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[e]; sel != nil && sel.Kind() == types.FieldVal {
				recv := sel.Recv()
				if p, ok := recv.Underlying().(*types.Pointer); ok {
					recv = p.Elem()
				}
				if tn := typeNameOf(recv); c.isLonglived(tn) {
					return e.Sel.Pos(), types.TypeString(recv, types.RelativeTo(c.pass.Pkg)) + "." + e.Sel.Name, true
				}
			}
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		default:
			return 0, "", false
		}
	}
}

func typeNameOf(t types.Type) *types.TypeName {
	if n, ok := t.(interface{ Obj() *types.TypeName }); ok {
		return n.Obj()
	}
	return nil
}
