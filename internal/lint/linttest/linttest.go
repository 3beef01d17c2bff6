// Package linttest is the golden-test harness for the bftlint analyzers:
// it runs analyzers through internal/lint/driver over a fixture package
// under internal/lint/testdata/src and compares every diagnostic against
// `// want` expectations in the fixture source.
//
// Expectation syntax:
//
//	s.qset[seq] = entries // want `stored into long-lived`
//	r.bump()              // want `reaches eventloop-owned` `via bump`
//
// Each backquoted pattern is a regexp that must match the message of a
// distinct diagnostic reported on that line; diagnostics with no matching
// pattern, and patterns with no matching diagnostic, both fail the test.
// Fixtures live under a testdata directory, so `go build ./...` and the
// repo-wide bftlint run never see them — which keeps deliberately buggy
// fixture code out of the clean-tree guarantee.
package linttest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/lint/driver"
)

// expectation is one `// want` pattern, keyed by file and line.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

var wantRe = regexp.MustCompile("// want (.*)$")
var patRe = regexp.MustCompile("`([^`]*)`")

// Run loads the fixture package internal/lint/testdata/src/<fixture>,
// runs the analyzers over it (dependencies first, facts flowing forward),
// and checks the diagnostics against the fixture's `// want` comments.
func Run(t *testing.T, fixture string, analyzers ...*driver.Analyzer) {
	t.Helper()
	root := repoRoot(t)
	set, err := driver.Load(root, "./internal/lint/testdata/src/"+fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	diags, err := set.Run(analyzers)
	if err != nil {
		t.Fatalf("running analyzers on %s: %v", fixture, err)
	}

	var wants []*expectation
	for _, pkg := range set.Pkgs {
		if !pkg.Reportable {
			continue
		}
		for _, f := range pkg.Syntax {
			name := set.Fset.Position(f.Pos()).Filename
			ws, err := parseWants(name)
			if err != nil {
				t.Fatalf("parsing expectations: %v", err)
			}
			wants = append(wants, ws...)
		}
	}

	for _, d := range diags {
		if !match(wants, d) {
			t.Errorf("unexpected diagnostic at %s: [%s] %s", posOf(d), d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none",
				filepath.Base(w.file), w.line, w.pattern)
		}
	}
}

// match consumes the first unmatched expectation on the diagnostic's line
// whose pattern matches its message.
func match(wants []*expectation, d driver.Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
			continue
		}
		if w.pattern.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

func posOf(d driver.Diagnostic) string {
	return fmt.Sprintf("%s:%d", filepath.Base(d.Pos.Filename), d.Pos.Line)
}

// parseWants extracts the `// want` expectations of one fixture file.
func parseWants(file string) ([]*expectation, error) {
	b, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var out []*expectation
	for i, line := range strings.Split(string(b), "\n") {
		m := wantRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		pats := patRe.FindAllStringSubmatch(m[1], -1)
		if len(pats) == 0 {
			return nil, fmt.Errorf("%s:%d: `// want` with no backquoted pattern", file, i+1)
		}
		for _, p := range pats {
			re, err := regexp.Compile(p[1])
			if err != nil {
				return nil, fmt.Errorf("%s:%d: bad pattern %q: %v", file, i+1, p[1], err)
			}
			out = append(out, &expectation{file: file, line: i + 1, pattern: re})
		}
	}
	return out, nil
}

// repoRoot locates the module root (two levels above this package's dir),
// robust to the test binary's working directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	// self = <root>/internal/lint/linttest/linttest.go
	root := filepath.Dir(filepath.Dir(filepath.Dir(filepath.Dir(self))))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found from %s: %v", self, err)
	}
	return root
}
