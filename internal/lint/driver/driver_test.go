package driver

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

const calleeSrc = `package p

import "errors"

type T struct{ fn func() }

func (T) M()   {}
func (*T) PM() {}

type I interface{ M() }

type GT[X any] struct{}

func (GT[X]) GM() {}

func F()               {}
func G[X any](X)       {}
func H[X, Y any](X, Y) {}

func use(t T, pt *T, i I, fs []func(), s []int, gt GT[int]) {
	F()                // F
	(F)()              // F
	G[int](1)          // G
	G(1)               // G
	H[int, int](1, 2)  // H
	t.M()              // M
	pt.PM()            // PM
	T.M(t)             // M
	gt.GM()            // GM
	_ = errors.New("") // New
	i.M()              // nil: interface method
	I.M(i)             // nil: interface method expression
	t.fn()             // nil: function-valued field
	fs[0]()            // nil: indexed function value
	_ = int(1.0)       // nil: conversion
	_ = len(s)         // nil: builtin
	func() {}()        // nil: function literal
	v := F
	v()                // nil: function value
}
`

// TestStaticCallee pins StaticCallee's resolution rules: static functions
// and methods through parentheses, instantiation and method expressions;
// nil for everything dispatched or not a function.
func TestStaticCallee(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", calleeSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("p", fset, []*ast.File{f}, info); err != nil {
		t.Fatal(err)
	}
	want := make(map[int]string) // line -> expected callee name or "nil"
	for _, cg := range f.Comments {
		word, _, _ := strings.Cut(cg.Text(), ":")
		want[fset.Position(cg.Pos()).Line] = strings.TrimSpace(word)
	}
	calls := 0
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		calls++
		line := fset.Position(call.Pos()).Line
		got := "nil"
		if fn := StaticCallee(info, call); fn != nil {
			got = fn.Name()
		}
		if got != want[line] {
			t.Errorf("line %d: StaticCallee(%s) = %s, want %s", line, types.ExprString(call), got, want[line])
		}
		return true
	})
	if calls != 18 {
		t.Errorf("visited %d calls, want 18", calls)
	}
}
