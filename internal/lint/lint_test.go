package lint_test

import (
	"bufio"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/annot"
	"repro/internal/lint/driver"
)

// TestRepoClean runs the full suite over the whole module and requires zero
// findings: the clean-tree guarantee CI enforces with cmd/bftlint. This
// also exercises cross-package fact flow (RunsFact from internal/transport
// into the ingress stage's sinks, LonglivedFact on pbft view-change state)
// on the real tree rather than fixtures.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and typechecks the whole module")
	}
	root := repoRoot(t)
	set, err := driver.Load(root, "./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	diags, err := set.Run(lint.Analyzers)
	if err != nil {
		t.Fatalf("running suite: %v", err)
	}
	for _, d := range diags {
		t.Errorf("finding on the clean tree: %s", d)
	}
}

// TestNoDigestExemptionsAudited pins the bftlint:nodigest exemption list:
// every exemption must carry a reason token (bftwire enforces this too,
// but only for structs it reaches), and adding a NEW exemption anywhere in
// the tree requires extending the list below — the audit the annotation
// grammar promises. Fixtures under testdata are the analyzers' own test
// vectors and are excluded.
func TestNoDigestExemptionsAudited(t *testing.T) {
	want := map[string]bool{
		"internal/message/messages.go:Replier=routing-advice":       true,
		"internal/message/messages.go:View=certificate-binds-tuple": true,
		"internal/message/messages.go:Seq=certificate-binds-tuple":  true,
		"internal/message/messages.go:Replica=authenticated-sender": true,
	}

	root := repoRoot(t)
	dirRe := regexp.MustCompile(`bftlint:nodigest(=([A-Za-z0-9-]*))?`)
	fieldRe := regexp.MustCompile(`^\s*([A-Za-z_][A-Za-z0-9_]*)`)

	got := make(map[string]bool)
	walkGoFiles(t, root, func(path string) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			line := sc.Text()
			// Only directive comments count — the annot grammar requires the
			// comment body to START with bftlint:, which also excludes prose
			// and diagnostic strings that merely mention the key.
			ci := strings.Index(line, "//")
			if ci < 0 {
				continue
			}
			body := strings.TrimSpace(line[ci+2:])
			if !strings.HasPrefix(body, "bftlint:nodigest") {
				continue
			}
			m := dirRe.FindStringSubmatch(body)
			if m == nil {
				continue
			}
			reason := m[2]
			if reason == "" {
				t.Errorf("%s: bftlint:nodigest without a reason token: %q", rel, strings.TrimSpace(line))
				continue
			}
			field := "?"
			if fm := fieldRe.FindStringSubmatch(line); fm != nil {
				field = fm[1]
			}
			got[fmt.Sprintf("%s:%s=%s", filepath.ToSlash(rel), field, reason)] = true
		}
		return sc.Err()
	})

	var diff []string
	for k := range got {
		if !want[k] {
			diff = append(diff, "unexpected exemption (extend the audited list): "+k)
		}
	}
	for k := range want {
		if !got[k] {
			diff = append(diff, "pinned exemption missing from the tree: "+k)
		}
	}
	sort.Strings(diff)
	for _, d := range diff {
		t.Error(d)
	}
}

// TestDirectiveKeysInUse requires every key of the closed directive
// vocabulary (annot.Keys) to annotate some non-test file outside the
// analyzers' fixtures: a key nothing uses guards nothing and goes, with
// whatever analyzer reads it.
func TestDirectiveKeysInUse(t *testing.T) {
	root := repoRoot(t)
	used := make(map[string]bool)
	fset := token.NewFileSet()
	walkGoFiles(t, root, func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, d := range annot.Parse(cg) {
				used[d.Key] = true
			}
		}
		return nil
	})
	for _, key := range annot.Keys {
		if !used[key] {
			t.Errorf("directive key %q annotates no file outside the fixtures; delete it from annot.Keys", key)
		}
	}
}

// walkGoFiles calls fn on every .go file of the module outside testdata
// directories, which hold the analyzers' own test vectors.
func walkGoFiles(t *testing.T, root string, fn func(path string) error) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" || d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		return fn(path)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// repoRoot locates the module root from this file's path, robust to the
// test binary's working directory.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(self)))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found from %s: %v", self, err)
	}
	return root
}
