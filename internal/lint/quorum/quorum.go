// Package quorum implements bftquorum, the quorum-arithmetic analyzer of
// the bftlint suite.
//
// Every certificate-size threshold in the protocol (f+1, 2f+1, 2f, 2f-1, f)
// derives from the resilience bound n = 3f+1, and the §4.1 safety argument
// is only as strong as the weakest hand-written comparison: one `>= 2*f`
// where the proof needs 2f+1 silently re-admits split-brain executions.
// The repo therefore centralizes all f-arithmetic in internal/quorum, and
// this analyzer enforces the migration:
//
//   - `bftlint:faultbound` marks fields, variables, and functions whose
//     value IS the fault threshold f (vlog.Log.f, pbft.Config.F, ...).
//   - A fault-bound value may be stored, returned, and passed to the
//     threshold helpers (internal/quorum functions, or helpers annotated
//     `bftlint:threshold` such as vlog.Log.Quorum), but it must not appear
//     as an operand of any arithmetic or comparison expression elsewhere:
//     `count >= 2*f` is a finding, `count >= quorum.Strong(f)` is not.
//   - Local variables assigned from a fault-bound expression inherit the
//     bound (`f := p.F(); 2*f` is still flagged).
//
// Bodies of `bftlint:threshold` functions are exempt — they are the audited
// places allowed to turn f into a certificate size. Facts carry both marks
// across packages, so pbft call sites of vlog and internal/quorum helpers
// resolve without re-annotation.
package quorum

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/annot"
	"repro/internal/lint/driver"
)

// Name is the analyzer name, used in `bftlint:allow=` suppressions.
const Name = "bftquorum"

// Analyzer is the bftquorum analyzer.
var Analyzer = &driver.Analyzer{
	Name: Name,
	Doc:  "flag raw f-arithmetic outside internal/quorum and bftlint:threshold helpers",
	Run:  run,
}

// FaultFact marks an object (field, var, or function result) whose value is
// the fault threshold f.
type FaultFact struct{}

func (*FaultFact) AFact() {}

// ThresholdFact marks a function blessed to consume fault-bound values and
// perform f-arithmetic (the internal/quorum helpers and annotated wrappers).
type ThresholdFact struct{}

func (*ThresholdFact) AFact() {}

type checker struct {
	pass      *driver.Pass
	fault     map[types.Object]bool // annotated fields/vars/functions
	threshold map[*types.Func]bool
}

func run(pass *driver.Pass) error {
	c := &checker{
		pass:      pass,
		fault:     make(map[types.Object]bool),
		threshold: make(map[*types.Func]bool),
	}
	c.collect()

	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn != nil && c.threshold[fn] {
				continue // blessed helper: the audited place for f-arithmetic
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

// collect gathers the annotated objects of this package and exports facts.
func (c *checker) collect() {
	info := c.pass.TypesInfo
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				dirs := annot.FuncDirectives(d)
				fn, ok := info.Defs[d.Name].(*types.Func)
				if !ok {
					continue
				}
				if annot.Has(dirs, "faultbound") {
					c.fault[fn] = true
					c.pass.ExportObjectFact(fn, &FaultFact{})
				}
				if annot.Has(dirs, "threshold") {
					c.threshold[fn] = true
					c.pass.ExportObjectFact(fn, &ThresholdFact{})
				}
			case *ast.GenDecl:
				ast.Inspect(d, func(n ast.Node) bool {
					st, ok := n.(*ast.StructType)
					if !ok {
						return true
					}
					for _, field := range st.Fields.List {
						if !annot.Has(annot.FieldDirectives(field), "faultbound") {
							continue
						}
						for _, name := range field.Names {
							if fv, ok := info.Defs[name].(*types.Var); ok {
								c.fault[fv] = true
								c.pass.ExportObjectFact(fv, &FaultFact{})
							}
						}
					}
					return true
				})
			}
		}
	}
}

func (c *checker) isFaultObj(obj types.Object) bool {
	if obj == nil {
		return false
	}
	if c.fault[obj] {
		return true
	}
	if obj.Pkg() == nil || obj.Pkg() == c.pass.Pkg {
		return false
	}
	var f FaultFact
	return c.pass.ImportObjectFact(obj, &f)
}

func (c *checker) isThreshold(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	if c.threshold[fn] {
		return true
	}
	if fn.Pkg() == nil || fn.Pkg() == c.pass.Pkg {
		return false
	}
	var f ThresholdFact
	return c.pass.ImportObjectFact(fn, &f)
}

// checkFunc flags arithmetic/comparison expressions with fault-bound
// operands inside one function.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	info := c.pass.TypesInfo

	// Local taint: variables assigned from a fault-bound expression are
	// fault-bound too. Iterate to a fixed point (assignment chains).
	local := make(map[types.Object]bool)
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
				obj := info.Defs[id]
				if obj == nil {
					obj = info.Uses[id]
				}
				if obj == nil || local[obj] {
					continue
				}
				if c.faultBound(as.Rhs[i], local) {
					local[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok {
			return true
		}
		for _, op := range []ast.Expr{be.X, be.Y} {
			if !c.faultBound(op, local) {
				continue
			}
			verb := "arithmetic on"
			switch be.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				verb = "comparison against"
			}
			c.pass.Reportf(be.Pos(),
				"raw %s the fault bound f (%s); certificate sizes must come from internal/quorum or a bftlint:threshold helper so the §4.1 thresholds cannot drift",
				verb, types.ExprString(be))
			break // one finding per expression
		}
		return true
	})
}

// faultBound reports whether expr evaluates to the fault threshold itself:
// an annotated object, a call to an annotated function, a tainted local, or
// a parenthesized/converted/negated form of one. Calls are boundaries — a
// call to a threshold helper is clean even with fault-bound arguments.
func (c *checker) faultBound(expr ast.Expr, local map[types.Object]bool) bool {
	info := c.pass.TypesInfo
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		return c.isFaultObj(obj) || local[obj]
	case *ast.SelectorExpr:
		return c.isFaultObj(info.Uses[e.Sel])
	case *ast.CallExpr:
		if fn := driver.StaticCallee(info, e); fn != nil {
			return c.isFaultObj(fn)
		}
		// Conversions propagate the bound: int(f), uint32(f).
		if tv, ok := info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return c.faultBound(e.Args[0], local)
		}
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
				return c.isFaultObj(fn)
			}
		}
		return false
	case *ast.UnaryExpr:
		return c.faultBound(e.X, local)
	}
	return false
}
