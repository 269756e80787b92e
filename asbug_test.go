package sulong

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
)

// TestAsBugUnwrapsWrappedErrors covers the errors.As-based unwrap: a
// *core.BugError buried under fmt.Errorf %w chains (and errors.Join, which
// the old hand-rolled loop could not traverse) must still be surfaced.
func TestAsBugUnwrapsWrappedErrors(t *testing.T) {
	bug := &core.BugError{Kind: core.OutOfBounds}

	cases := map[string]error{
		"bare":          bug,
		"wrapped":       fmt.Errorf("engine: %w", bug),
		"doublewrapped": fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", bug)),
		"joined":        errors.Join(errors.New("unrelated"), fmt.Errorf("run: %w", bug)),
	}
	for name, err := range cases {
		got, ok := asBug(err)
		if !ok {
			t.Errorf("%s: asBug failed to find the bug", name)
			continue
		}
		if got != bug {
			t.Errorf("%s: surfaced %v, want the original bug", name, got)
		}
	}

	if _, ok := asBug(errors.New("no bug here")); ok {
		t.Error("asBug reported a bug in a plain error")
	}
	if _, ok := asBug(nil); ok {
		t.Error("asBug reported a bug in nil")
	}
}

// TestWrappedBugSurfacesInResult runs a program whose execution reports a
// bug and checks it lands in Result.Bug (not in the error return), i.e. the
// unwrap path is live end to end.
func TestWrappedBugSurfacesInResult(t *testing.T) {
	src := `int main(void) { int a[4]; return a[5]; }`
	res, err := Run(src, Config{Engine: EngineSafeSulong})
	if err != nil {
		t.Fatalf("bug must be surfaced in Result, not the error: %v", err)
	}
	if res.Bug == nil {
		t.Fatal("expected Result.Bug for an out-of-bounds read")
	}
}
