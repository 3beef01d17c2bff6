package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExitCodes pins the command's exit rule, which CI's zero-findings
// gate relies on: 1 on any finding, 0 on a clean package, 2 when the
// packages cannot be loaded.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		pattern string
		code    int
		stdout  string // substring the output must contain
	}{
		{"../../internal/lint/testdata/src/randfix", 1, "(bftrand)"},
		{"../../internal/quorum", 0, ""},
		{"./no/such/package", 2, ""},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run([]string{tc.pattern}, &stdout, &stderr); code != tc.code {
			t.Errorf("bftlint %s: exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
				tc.pattern, code, tc.code, &stdout, &stderr)
		}
		if !strings.Contains(stdout.String(), tc.stdout) {
			t.Errorf("bftlint %s: stdout lacks %q:\n%s", tc.pattern, tc.stdout, &stdout)
		}
		if tc.code == 0 && stdout.Len() > 0 {
			t.Errorf("bftlint %s: clean run printed findings:\n%s", tc.pattern, &stdout)
		}
	}
}
