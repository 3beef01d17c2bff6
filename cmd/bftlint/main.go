// Command bftlint runs the repo's invariant analyzers (internal/lint) over
// the named packages (default ./...) and prints each finding.
//
//	go run ./cmd/bftlint ./...
//
// It exits 1 if there are findings and 2 if the packages cannot be loaded
// or an analyzer fails.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/lint"
	"repro/internal/lint/driver"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages matching args, relative to the working
// directory, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	patterns := args
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "bftlint:", err)
		return 2
	}
	set, err := driver.Load(wd, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "bftlint:", err)
		return 2
	}
	diags, err := set.Run(lint.Analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "bftlint:", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "bftlint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}
