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
	"slices"
	"strings"
	"unicode"
)

// Directive is one parsed bftlint comment.
type Directive struct {
	Key   string // one of Keys
	Value string // "" for bare keys
	Pos   token.Pos
}

// Keys lists every directive key an analyzer reads. bftowner reports any
// other key, so a directive whose analyzer is gone cannot linger as an
// annotation that annotates nothing.
var Keys = []string{
	"owner", "entrypoint", "runs", "longlived", "send", "deterministic",
	"digest", "nodigest", "nowire", "allow",
}

// Known reports whether key is one of Keys.
func Known(key string) bool { return slices.Contains(Keys, key) }

// prefix is what a directive comment starts with after the comment marker.
const prefix = "bftlint:"

// parseLine parses one comment's text (without the // or /* markers). The
// prefix must open the text, after at most one space: a wrapped line of
// prose in a doc comment's indented list that happens to start with it is
// not a directive.
func parseLine(text string, pos token.Pos) (Directive, bool) {
	text = strings.TrimPrefix(text, " ")
	if !strings.HasPrefix(text, prefix) {
		return Directive{}, false
	}
	body := text[len(prefix):]
	// Anything after the first whitespace is commentary.
	if i := strings.IndexFunc(body, unicode.IsSpace); i >= 0 {
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

// Stray returns the position of every `bftlint:key` token in cg that Parse
// ignores because other comment text comes before it in its comment, as in
// `x int // note; bftlint:owner=eventloop`: it reads as an annotation but
// annotates nothing. A token inside backquotes is quoted on purpose, as is
// one on an indented code-block line of a doc comment (text starting with a
// tab after the comment marker).
func Stray(cg *ast.CommentGroup) []token.Pos {
	if cg == nil {
		return nil
	}
	var out []token.Pos
	for _, c := range cg.List {
		body := c.Text[2:] // after "//" or "/*"
		lead := len(body) - len(strings.TrimLeft(body, " \t\n"))
		if !strings.HasPrefix(body[lead:], prefix) {
			lead = -1 // no directive: every token is stray
		}
		quoted, codeLine := false, strings.HasPrefix(body, "\t")
		for i := 0; i < len(body); i++ {
			switch {
			case body[i] == '\n':
				quoted, codeLine = false, strings.HasPrefix(body[i+1:], "\t")
			case body[i] == '`':
				quoted = !quoted
			case !quoted && !codeLine && i != lead && isKeyed(body[i:]):
				out = append(out, c.Pos()+token.Pos(2+i))
			}
		}
	}
	return out
}

// isKeyed reports whether text starts with the directive prefix and a key.
func isKeyed(text string) bool {
	return len(text) > len(prefix) && strings.HasPrefix(text, prefix) &&
		text[len(prefix)] >= 'a' && text[len(prefix)] <= 'z'
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
// directives by file and line.
type Suppressions map[fileLine][]string

type fileLine struct {
	file string
	line int
}

// SuppressionsFor builds the suppression index for a package's files.
func SuppressionsFor(fset *token.FileSet, files []*ast.File) Suppressions {
	s := make(Suppressions)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, d := range Parse(cg) {
				p := fset.Position(d.Pos)
				at := fileLine{p.Filename, p.Line}
				if d.Key != "allow" {
					continue
				}
				for _, name := range strings.Split(d.Value, ",") {
					if name = strings.TrimSpace(name); name != "" {
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
