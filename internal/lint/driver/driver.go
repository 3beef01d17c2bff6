// Package driver is the bftlint analysis framework, built on the standard
// library alone: the Analyzer, Pass and Fact types the analyzers are
// written against, and the one loader and runner behind cmd/bftlint, the
// linttest golden harness and TestRepoClean.
//
// Load shells out to `go list -json -export -deps` for package metadata
// and compiled export data, typechecks every main-module package from
// source in dependency order so object identities are shared across
// packages, and imports everything else (the standard library) from its
// export file. Run then applies the analyzers package by package,
// dependencies first, with an in-memory fact store, so a fact exported
// while analyzing a package is visible to every package that imports it.
//
// Only a package's GoFiles are parsed: _test.go files never reach an
// analyzer. The analyzers target production code, and tests exercise
// nondeterminism, aliasing and raw f-arithmetic on purpose.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strings"

	"repro/internal/lint/annot"
)

// Analyzer is one bftlint check. Run inspects one package through its
// Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	Name string // also the name `bftlint:allow=` suppressions use
	Doc  string
	Run  func(*Pass) error
}

// Fact is an analyzer-defined summary attached to a types.Object while
// analyzing the package that declares it, and read back while analyzing
// the packages that import it. Facts are pointers to struct types.
type Fact interface{ AFact() }

// Pass is one analyzer's view of one package.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	analyzer string
	facts    map[factKey]Fact
	diags    *[]Diagnostic      // nil for dependency-only packages
	allow    annot.Suppressions // the package's bftlint:allow directives
}

type factKey struct {
	obj types.Object
	typ reflect.Type
}

// Reportf records a finding at pos, unless the package was loaded only as
// a dependency, or a `bftlint:allow` directive (or an acknowledgment alias)
// for this analyzer sits on pos's line or the line above.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.diags == nil {
		return
	}
	at := p.Fset.Position(pos)
	if p.allow.Allowed(at, p.analyzer) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{Analyzer: p.analyzer, Pos: at, Message: fmt.Sprintf(format, args...)})
}

// ExportObjectFact attaches fact to obj, replacing any earlier fact of
// the same type.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	p.facts[factKey{obj, reflect.TypeOf(fact)}] = fact
}

// ImportObjectFact copies the fact of fact's type attached to obj into
// fact, and reports whether there was one.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	stored := p.facts[factKey{obj, reflect.TypeOf(fact)}]
	if stored == nil {
		return false
	}
	reflect.ValueOf(fact).Elem().Set(reflect.ValueOf(stored).Elem())
	return true
}

// Package is one source-typechecked main-module package.
type Package struct {
	PkgPath    string
	Dir        string
	Syntax     []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
	Reportable bool // matched the load patterns (not a dep-only package)
}

// Set is a load result: packages in dependency order plus everything
// needed to import the rest of the build from export data.
type Set struct {
	Fset    *token.FileSet
	Pkgs    []*Package
	exports map[string]string // import path -> export data file
	srcPkgs map[string]*types.Package
	gc      types.Importer // shared so identical imports unify
}

// Diagnostic is one analyzer finding, positioned.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// listPkg is the subset of `go list -json` output the driver consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *struct {
		Path string
		Main bool
	}
}

// Load lists patterns (relative to dir) and typechecks the main-module
// packages of the result, dependencies first.
func Load(dir string, patterns ...string) (*Set, error) {
	args := append([]string{"list", "-json", "-export", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}

	byPath := make(map[string]*listPkg)
	var order []string
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding go list output: %v", err)
		}
		byPath[p.ImportPath] = &p
		order = append(order, p.ImportPath)
	}

	s := &Set{
		Fset:    token.NewFileSet(),
		exports: make(map[string]string),
		srcPkgs: make(map[string]*types.Package),
	}
	inMain := func(p *listPkg) bool { return p != nil && p.Module != nil && p.Module.Main }
	for _, p := range byPath {
		if p.Export != "" {
			s.exports[p.ImportPath] = p.Export
		}
	}

	// Topologically order the main-module packages.
	var topo []string
	state := make(map[string]int) // 0 unvisited, 1 on stack, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		p := byPath[path]
		if !inMain(p) || state[path] == 2 {
			return nil
		}
		if state[path] == 1 {
			return fmt.Errorf("import cycle through %s", path)
		}
		state[path] = 1
		for _, imp := range p.Imports {
			if err := visit(imp); err != nil {
				return err
			}
		}
		state[path] = 2
		topo = append(topo, path)
		return nil
	}
	for _, path := range order {
		if err := visit(path); err != nil {
			return nil, err
		}
	}

	for _, path := range topo {
		p := byPath[path]
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported by the bftlint driver", path)
		}
		pkg, err := s.check(p)
		if err != nil {
			return nil, err
		}
		pkg.Reportable = !p.DepOnly
		s.Pkgs = append(s.Pkgs, pkg)
	}
	return s, nil
}

// importerFor resolves imports: source-typechecked main-module packages by
// identity, everything else through compiled export data.
type importerFor struct{ s *Set }

func (im importerFor) Import(path string) (*types.Package, error) {
	if p := im.s.srcPkgs[path]; p != nil {
		return p, nil
	}
	if im.s.gc == nil {
		im.s.gc = importer.ForCompiler(im.s.Fset, "gc", func(path string) (io.ReadCloser, error) {
			f := im.s.exports[path]
			if f == "" {
				return nil, fmt.Errorf("no export data for %q", path)
			}
			return os.Open(f)
		})
	}
	return im.s.gc.Import(path)
}

// check parses and typechecks one package from source.
func (s *Set) check(p *listPkg) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		path := name
		if !strings.HasPrefix(path, "/") {
			path = p.Dir + "/" + name
		}
		f, err := parser.ParseFile(s.Fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Instances:  make(map[*ast.Ident]types.Instance),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: importerFor{s}}
	pkg, err := conf.Check(p.ImportPath, s.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typechecking %s: %v", p.ImportPath, err)
	}
	s.srcPkgs[p.ImportPath] = pkg
	return &Package{
		PkgPath:   p.ImportPath,
		Dir:       p.Dir,
		Syntax:    files,
		Types:     pkg,
		TypesInfo: info,
	}, nil
}

// Run applies the analyzers to every package in the set, dependencies
// first so facts flow forward. Only packages that matched the load
// patterns contribute diagnostics, sorted by position.
func (s *Set) Run(analyzers []*Analyzer) ([]Diagnostic, error) {
	facts := make(map[factKey]Fact)
	var diags []Diagnostic
	for _, pkg := range s.Pkgs {
		base := Pass{Fset: s.Fset, Files: pkg.Syntax, Pkg: pkg.Types, TypesInfo: pkg.TypesInfo, facts: facts}
		if pkg.Reportable {
			base.diags = &diags
			base.allow = annot.SuppressionsFor(s.Fset, pkg.Syntax)
		}
		for _, a := range analyzers {
			pass := base
			pass.analyzer = a.Name
			if err := a.Run(&pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.PkgPath, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return diags, nil
}

// StaticCallee returns the function or method a call statically invokes,
// looking through parentheses and generic instantiation (an instantiated
// call yields the generic function). It returns nil for conversions,
// builtins, calls of function values and calls of interface methods.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch ix := fun.(type) {
	case *ast.IndexExpr:
		fun = ix.X
	case *ast.IndexListExpr:
		fun = ix.X
	}
	var obj types.Object
	switch fun := fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // qualified identifier
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
		return nil
	}
	return fn
}
