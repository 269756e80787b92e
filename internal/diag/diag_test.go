package diag

import (
	"encoding/json"
	"testing"
)

func TestStackPushPopShare(t *testing.T) {
	var s Stack
	if !s.IsEmpty() || s.Len() != 0 {
		t.Fatal("zero Stack should be empty")
	}
	s1 := s.Push(Frame{Func: "main", Line: 3})
	s2 := s1.Push(Frame{Func: "f", Line: 7})
	// Capturing s2 then popping must not disturb the capture.
	captured := s2
	s3 := s2.Pop()
	if !s3.Equal(s1) {
		t.Fatal("pop should restore the parent stack")
	}
	got := captured.Frames()
	if len(got) != 2 || got[0] != (Frame{Func: "f", Line: 7}) || got[1] != (Frame{Func: "main", Line: 3}) {
		t.Fatalf("captured frames wrong: %v", got)
	}
	// Shared-tail fast path.
	if !s2.Equal(captured) {
		t.Fatal("identical stacks must compare equal")
	}
	if s1.Equal(s2) {
		t.Fatal("different depths must not compare equal")
	}
}

func TestStackJSONRoundTrip(t *testing.T) {
	s := FromFrames([]Frame{{Func: "g", Line: 9}, {Func: "main", Line: 2}})
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Stack
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(s) {
		t.Fatalf("round trip changed stack: %s vs %s", back, s)
	}
}

func TestDiagnosticRenderExcludesTier(t *testing.T) {
	mk := func(tier string) *Diagnostic {
		return &Diagnostic{
			Kind:    "use-after-free",
			Message: "use-after-free of size 4 in f (line 7)",
			Tool:    "SafeSulong",
			Tier:    tier,
			Access:  FromFrames([]Frame{{Func: "f", Line: 7}, {Func: "main", Line: 3}}),
			Alloc:   FromFrames([]Frame{{Func: "main", Line: 2}}),
			Free:    FromFrames([]Frame{{Func: "main", Line: 4}}),
		}
	}
	a, b := mk("interp").Render(), mk("jit").Render()
	if a != b {
		t.Fatalf("renders differ across tiers:\n%s\n---\n%s", a, b)
	}
	want := "use-after-free of size 4 in f (line 7)\n" +
		"    #0 f (line 7)\n" +
		"    #1 main (line 3)\n" +
		"freed by:\n" +
		"    #0 main (line 4)\n" +
		"allocated by:\n" +
		"    #0 main (line 2)"
	if a != want {
		t.Fatalf("render:\n%s\nwant:\n%s", a, want)
	}
}

// TestEdgesCaptureLazily pins the edge stack's captures against the
// persistent Stack built eagerly, and its node sharing: a capture repeated
// with the same live edges reuses every node, and a push into a slot never
// lets a stale memo through.
func TestEdgesCaptureLazily(t *testing.T) {
	var s Edges
	if !s.Stack().IsEmpty() {
		t.Fatal("zero Edges should capture the empty stack")
	}
	leaf := Frame{Func: "main", Line: 1}
	if got := s.StackAt(leaf); !got.Equal(FromFrames([]Frame{leaf})) {
		t.Fatalf("StackAt with no edges = %v", got.Frames())
	}
	s.Push("main", 3)
	s.Push("f", 7)
	want := FromFrames([]Frame{{Func: "f", Line: 7}, {Func: "main", Line: 3}})
	a := s.Stack()
	if !a.Equal(want) {
		t.Fatalf("Stack = %v, want %v", a.Frames(), want.Frames())
	}
	if b := s.Stack(); b.top != a.top {
		t.Fatal("a second capture with the same edges built new nodes")
	}
	g := Frame{Func: "g", Line: 9}
	if l1, l2 := s.StackAt(g), s.StackAt(g); l1.top != l2.top || !l1.Pop().Equal(want) {
		t.Fatalf("StackAt = %v, not memoized on the live edges", l1.Frames())
	}

	// Popping and pushing the same edge again reuses its node; pushing a
	// different edge into the slot builds a new one, and the earlier
	// capture is unchanged.
	s.Pop()
	s.Push("f", 7)
	if b := s.Stack(); b.top != a.top {
		t.Fatal("the same edge on the same parent was not reused")
	}
	s.Pop()
	s.Push("h", 8)
	c := s.Stack()
	if !c.Equal(FromFrames([]Frame{{Func: "h", Line: 8}, {Func: "main", Line: 3}})) || c.Pop().top != a.Pop().top {
		t.Fatalf("Stack after re-push = %v", c.Frames())
	}
	if !a.Equal(want) {
		t.Fatal("a captured stack changed after a later push")
	}
	if f, ok := s.Top(); !ok || f != (Frame{Func: "h", Line: 8}) {
		t.Fatalf("Top = %v, %v", f, ok)
	}

	s.Reset()
	if _, ok := s.Top(); ok || !s.Stack().IsEmpty() {
		t.Fatal("Reset left edges behind")
	}
}
