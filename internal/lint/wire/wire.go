// Package wire implements bftwire, the wire/digest coverage analyzer of the
// bftlint suite.
//
// Every struct that implements the codec pair marshalBody/unmarshalBody is a
// wire message, and two field-level properties must hold for each one:
//
//   - Symmetry: each field is referenced by BOTH marshalBody and
//     unmarshalBody (or by neither, with a `bftlint:nowire=<reason>`
//     exemption). A field written by one side only is wire drift — the
//     decoded message silently differs from the encoded one.
//
//   - Digest coverage: for digest-bearing messages (a `Digest()` method or
//     one annotated `bftlint:digest`), every field that rides the wire must
//     be an input of the digest computation, or carry an audited
//     `bftlint:nodigest=<reason>` exemption. PR 4's Byzantine wedge was
//     exactly this gap: MetaData carried Parts[].LastMod on the wire while
//     InteriorDigest covered only the part digests, so a faulty replica
//     could ship arbitrary LastMod values under a valid digest and wedge
//     the fetcher's hierarchy walk.
//
// Reasons are single tokens (kebab-case); anything after whitespace in the
// directive is commentary. An exemption with an empty reason is itself a
// finding, so the exemption list stays auditable (grep `bftlint:nodigest`).
package wire

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/annot"
	"repro/internal/lint/driver"
)

// Name is the analyzer name, used in `bftlint:allow=` suppressions.
const Name = "bftwire"

// Analyzer is the bftwire analyzer. It exists for the PR 4 LastMod gap: a
// wire field outside the digest that a Byzantine replica could vary under
// a valid digest to wedge state transfer.
var Analyzer = &driver.Analyzer{
	Name: Name,
	Doc:  "check wire-message structs for marshal/unmarshal symmetry and digest coverage of every field",
	Run:  run,
}

// msgType is one candidate wire struct with its collected methods.
type msgType struct {
	name      *types.TypeName
	fields    []*types.Var
	fieldDecl map[*types.Var]*ast.Field
	marshal   *types.Func
	unmarshal *types.Func
	auth      *types.Func   // AuthTrailer: fields it returns are trailer-covered
	digests   []*types.Func // Digest() methods or `bftlint:digest`-annotated
}

type checker struct {
	pass    *driver.Pass
	decls   map[*types.Func]*ast.FuncDecl
	byType  map[*types.TypeName]*msgType
	recv    map[*types.Func]*types.TypeName // receiver base type of each method
	refMemo map[*types.Func]*refSet
	stack   map[*types.Func]bool
}

// refSet is the (transitive) field-reference summary of one method.
type refSet struct {
	fields map[*types.Var]bool
	full   bool // receiver escapes whole (passed to a call / Payload / Marshal)
}

func run(pass *driver.Pass) error {
	c := &checker{
		pass:    pass,
		decls:   make(map[*types.Func]*ast.FuncDecl),
		byType:  make(map[*types.TypeName]*msgType),
		recv:    make(map[*types.Func]*types.TypeName),
		refMemo: make(map[*types.Func]*refSet),
		stack:   make(map[*types.Func]bool),
	}
	// Pass 1: struct declarations, including those local to function
	// bodies.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				c.declareStruct(ts)
			}
			return true
		})
	}

	// Pass 2: methods.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				c.declareMethod(fd)
			}
		}
	}

	for _, mt := range c.byType {
		if mt.marshal != nil && mt.unmarshal != nil {
			c.check(mt)
		}
	}
	return nil
}

// declareStruct records a struct type as a candidate wire message.
func (c *checker) declareStruct(ts *ast.TypeSpec) {
	st, ok := ts.Type.(*ast.StructType)
	if !ok {
		return
	}
	tn, ok := c.pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
	if !ok {
		return
	}
	mt := &msgType{name: tn, fieldDecl: make(map[*types.Var]*ast.Field)}
	for _, f := range st.Fields.List {
		for _, name := range f.Names {
			if fv, ok := c.pass.TypesInfo.Defs[name].(*types.Var); ok {
				mt.fields = append(mt.fields, fv)
				mt.fieldDecl[fv] = f
			}
		}
	}
	c.byType[tn] = mt
}

// declareMethod records a method and, on a candidate wire struct, its
// codec, trailer or digest role.
func (c *checker) declareMethod(fd *ast.FuncDecl) {
	fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
	if !ok || fd.Recv == nil || fd.Body == nil {
		return
	}
	c.decls[fn] = fd
	tn := receiverType(fn)
	if tn == nil {
		return
	}
	c.recv[fn] = tn
	mt, ok := c.byType[tn]
	if !ok {
		return
	}
	switch {
	case fn.Name() == "marshalBody":
		mt.marshal = fn
	case fn.Name() == "unmarshalBody":
		mt.unmarshal = fn
	case fn.Name() == "AuthTrailer":
		mt.auth = fn
	case isDigestMethod(fn, fd):
		mt.digests = append(mt.digests, fn)
	}
}

// isDigestMethod reports whether fn computes a message digest: a
// parameterless method named Digest, or any method annotated `bftlint:digest`
// (PrePrepare's digest is named BatchDigest).
func isDigestMethod(fn *types.Func, fd *ast.FuncDecl) bool {
	if annot.Has(annot.FuncDirectives(fd), "digest") {
		return true
	}
	sig := fn.Type().(*types.Signature)
	return fn.Name() == "Digest" && sig.Params().Len() == 0 && sig.Results().Len() > 0
}

// receiverType returns the named base type of a method's receiver.
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

func (c *checker) check(mt *msgType) {
	marshaled := c.refsOf(mt.marshal)
	unmarshaled := c.refsOf(mt.unmarshal)
	trailer := &refSet{fields: map[*types.Var]bool{}}
	if mt.auth != nil {
		trailer = c.refsOf(mt.auth)
	}
	digest := &refSet{fields: map[*types.Var]bool{}}
	for _, d := range mt.digests {
		ds := c.refsOf(d)
		digest.full = digest.full || ds.full
		for f := range ds.fields {
			digest.fields[f] = true
		}
	}

	for _, f := range mt.fields {
		decl := mt.fieldDecl[f]
		pos := f.Pos()
		dirs := annot.FieldDirectives(decl)
		inM, inU := marshaled.has(f), unmarshaled.has(f)

		if trailer.has(f) && !inM && !inU {
			continue // auth trailer: marshaled/verified by the envelope
		}
		if !inM && !inU {
			if reason, ok := annot.Value(dirs, "nowire"); ok {
				if reason == "" {
					c.pass.Reportf(pos, "bftlint:nowire on %s.%s needs a reason token; the exemption list is audited",
						mt.name.Name(), f.Name())
				}
				continue
			}
			c.pass.Reportf(pos,
				"wire struct %s: field %s is referenced by neither marshalBody nor unmarshalBody; it silently vanishes on the wire — marshal it or annotate bftlint:nowire=<reason>",
				mt.name.Name(), f.Name())
			continue
		}
		if inM != inU {
			side, other := "marshalBody", "unmarshalBody"
			if inU {
				side, other = "unmarshalBody", "marshalBody"
			}
			c.pass.Reportf(pos,
				"wire struct %s: field %s is referenced by %s but not %s; encode/decode drift means the decoded message differs from the encoded one",
				mt.name.Name(), f.Name(), side, other)
			continue
		}

		// Digest coverage: only for digest-bearing messages, only for
		// fields that ride the wire body.
		if len(mt.digests) == 0 || digest.full || digest.has(f) {
			continue
		}
		if reason, ok := annot.Value(dirs, "nodigest"); ok {
			if reason == "" {
				c.pass.Reportf(pos, "bftlint:nodigest on %s.%s needs a reason token; the exemption list is audited",
					mt.name.Name(), f.Name())
			}
			continue
		}
		c.pass.Reportf(pos,
			"wire struct %s: field %s rides the wire but no digest computation covers it; a Byzantine sender can vary it under an unchanged digest (the PR 4 LastMod shape) — cover it or annotate bftlint:nodigest=<reason>",
			mt.name.Name(), f.Name())
	}
}

func (r *refSet) has(f *types.Var) bool { return r.full || r.fields[f] }

// refsOf returns the transitive field-reference set of a method: fields
// selected in its body plus those of same-type methods it calls. The
// receiver escaping whole — passed as a call argument, or Payload/Marshal
// invoked on it — marks full coverage (those serialize every field).
func (c *checker) refsOf(fn *types.Func) *refSet {
	if r, ok := c.refMemo[fn]; ok {
		return r
	}
	r := &refSet{fields: make(map[*types.Var]bool)}
	if c.stack[fn] {
		return r // recursion: fields found elsewhere on the cycle still count
	}
	c.stack[fn] = true
	defer delete(c.stack, fn)

	fd := c.decls[fn]
	tn := c.recv[fn]
	if fd == nil || tn == nil {
		c.refMemo[fn] = r
		return r
	}
	mt := c.byType[tn]
	recv := recvObj(c.pass, fd)
	info := c.pass.TypesInfo

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			if sel := info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
				if fv, ok := sel.Obj().(*types.Var); ok && mt != nil && mt.fieldDecl[fv] != nil {
					r.fields[fv] = true
				}
			}
		case *ast.CallExpr:
			callee := driver.StaticCallee(info, n)
			if callee != nil && c.recv[callee] == tn {
				if callee.Name() == "Payload" || callee.Name() == "Marshal" || callee.Name() == "marshalBody" {
					r.full = true
					return true
				}
				sub := c.refsOf(callee)
				r.full = r.full || sub.full
				for f := range sub.fields {
					r.fields[f] = true
				}
			}
			// The receiver passed whole to any call (payloadOf(m, ...),
			// DigestOf(m.Payload()) resolves above) covers every field.
			for _, a := range n.Args {
				if escapesReceiver(info, a, recv) {
					r.full = true
				}
			}
		}
		return true
	})
	c.refMemo[fn] = r
	return r
}

// recvObj returns the receiver variable object of a method declaration.
func recvObj(pass *driver.Pass, fd *ast.FuncDecl) types.Object {
	if fd.Recv == nil || len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return nil
	}
	return pass.TypesInfo.Defs[fd.Recv.List[0].Names[0]]
}

// escapesReceiver reports whether expr is the receiver itself (m, &m, *m).
func escapesReceiver(info *types.Info, expr ast.Expr, recv types.Object) bool {
	if recv == nil {
		return false
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return info.Uses[e] == recv
	case *ast.UnaryExpr:
		return escapesReceiver(info, e.X, recv)
	case *ast.StarExpr:
		return escapesReceiver(info, e.X, recv)
	}
	return false
}
