package lint_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
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
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(self)))
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root not found from %s: %v", self, err)
	}
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

	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(self)))
	dirRe := regexp.MustCompile(`bftlint:nodigest(=([A-Za-z0-9-]*))?`)
	fieldRe := regexp.MustCompile(`^\s*([A-Za-z_][A-Za-z0-9_]*)`)

	got := make(map[string]bool)
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
	if err != nil {
		t.Fatal(err)
	}

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
