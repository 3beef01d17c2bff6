// Package annot parses the bftlint annotation grammar: machine-readable
// comments that declare the repo's ownership, aliasing, and determinism
// invariants so the analyzers in internal/lint can enforce them.
//
// A directive is a comment line of the form
//
//	//bftlint:key
//	//bftlint:key=value
//
// (a single space after // is permitted; anything after the first
// whitespace inside the directive body is human commentary and ignored).
// Directives attach to the declaration whose doc or trailing comment they
// appear in. The full grammar is specified in internal/lint/doc.go.
package annot

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directive is one parsed bftlint comment.
type Directive struct {
	Key   string // "owner", "entrypoint", "rendezvous", ...
	Value string // "" for bare keys
	Pos   token.Pos
}

// prefix is what a directive comment starts with after the comment marker.
const prefix = "bftlint:"

// parseLine parses one comment's text (without the // or /* markers).
func parseLine(text string, pos token.Pos) (Directive, bool) {
	text = strings.TrimSpace(text)
	if !strings.HasPrefix(text, prefix) {
		return Directive{}, false
	}
	body := text[len(prefix):]
	// Anything after the first whitespace is commentary.
	if i := strings.IndexAny(body, " \t"); i >= 0 {
		body = body[:i]
	}
	if body == "" {
		return Directive{}, false
	}
	d := Directive{Key: body, Pos: pos}
	if i := strings.IndexByte(body, '='); i >= 0 {
		d.Key, d.Value = body[:i], body[i+1:]
	}
	return d, true
}

// Parse returns every directive in a comment group.
func Parse(cg *ast.CommentGroup) []Directive {
	if cg == nil {
		return nil
	}
	var out []Directive
	for _, c := range cg.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimPrefix(text, "/*")
		text = strings.TrimSuffix(text, "*/")
		if d, ok := parseLine(text, c.Pos()); ok {
			out = append(out, d)
		}
	}
	return out
}

// FuncDirectives returns the directives attached to a function declaration.
func FuncDirectives(fd *ast.FuncDecl) []Directive { return Parse(fd.Doc) }

// TypeDirectives returns the directives attached to a type declaration:
// those on the TypeSpec itself plus, for single-spec declarations, those on
// the enclosing GenDecl ("type Foo struct { ... }" puts the doc there).
func TypeDirectives(gd *ast.GenDecl, ts *ast.TypeSpec) []Directive {
	out := Parse(ts.Doc)
	if gd != nil && len(gd.Specs) == 1 {
		out = append(out, Parse(gd.Doc)...)
	}
	return out
}

// FieldDirectives returns the directives attached to a struct field (doc
// comment above it or trailing comment on its line).
func FieldDirectives(f *ast.Field) []Directive {
	out := Parse(f.Doc)
	out = append(out, Parse(f.Comment)...)
	return out
}

// Value returns the value of the first directive with the given key, and
// whether one was present.
func Value(ds []Directive, key string) (string, bool) {
	for _, d := range ds {
		if d.Key == key {
			return d.Value, true
		}
	}
	return "", false
}

// Has reports whether a directive with the given key is present.
func Has(ds []Directive, key string) bool {
	_, ok := Value(ds, key)
	return ok
}

// Suppressions indexes a package's `bftlint:allow=<name>[,<name>...]`
// directives (plus the analyzer-specific acknowledgment spellings, e.g.
// `bftlint:deepcopy` which is allow=bftalias) by file and line.
type Suppressions map[fileLine][]string

type fileLine struct {
	file string
	line int
}

// ackAliases maps acknowledgment spellings to the analyzer they allow.
var ackAliases = map[string]string{
	"deepcopy": "bftalias", // "I deep-copied / aliasing is intended here"
	"reuse-ok": "bftbufown",
}

// SuppressionsFor builds the suppression index for a package's files.
func SuppressionsFor(fset *token.FileSet, files []*ast.File) Suppressions {
	s := make(Suppressions)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, d := range Parse(cg) {
				p := fset.Position(d.Pos)
				at := fileLine{p.Filename, p.Line}
				switch d.Key {
				case "allow":
					for _, name := range strings.Split(d.Value, ",") {
						if name = strings.TrimSpace(name); name != "" {
							s[at] = append(s[at], name)
						}
					}
				default:
					if name, ok := ackAliases[d.Key]; ok {
						s[at] = append(s[at], name)
					}
				}
			}
		}
	}
	return s
}

// Allowed reports whether analyzer name is suppressed at pos: an allow
// directive on the same line (trailing comment) or on the line directly
// above (its own comment line) covers it.
func (s Suppressions) Allowed(pos token.Position, name string) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, n := range s[fileLine{pos.Filename, line}] {
			if n == name {
				return true
			}
		}
	}
	return false
}
