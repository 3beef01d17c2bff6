package statemachine_test

import (
	"strings"
	"testing"

	"repro/internal/statemachine"
)

// TestConcurrentMutationPanicsNamingTheViolator holds the Region inside one
// mutation (parked in the copy-on-write hook) while a second goroutine
// mutates: the single-owner guard must trip on the second, and the panic
// must name that goroutine's call site — the stack is only walked here, on
// the failing path. (An external test package: the walk skips this package's
// own frames to find the caller.)
func TestConcurrentMutationPanicsNamingTheViolator(t *testing.T) {
	r := statemachine.NewRegion(256, 64)
	inHook, release := make(chan struct{}), make(chan struct{})
	r.SetOnModify(func(int) {
		close(inHook)
		<-release
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.WriteAt(0, []byte{1}) // the legitimate owner, mid-mutation
	}()
	<-inHook

	var msg string
	func() {
		defer func() { msg, _ = recover().(string) }()
		violatingWrite(r)
	}()
	close(release)
	<-done

	if !strings.Contains(msg, "concurrent Region mutation") {
		t.Fatalf("second mutator did not trip the guard (recovered %q)", msg)
	}
	if !strings.Contains(msg, "violatingWrite") {
		t.Fatalf("panic does not name the violating call site: %q", msg)
	}
	// The guard must be usable again once the owner is done.
	r.SetOnModify(nil)
	r.WriteAt(64, []byte{2})
}

//go:noinline
func violatingWrite(r *statemachine.Region) { r.WriteAt(128, []byte{9}) }
