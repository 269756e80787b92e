// Package diag is the unified diagnostics layer shared by every engine.
//
// The paper's headline UX claim for Safe Sulong is that errors come with
// exact, self-explanatory messages: a Java-style stack trace pinpointing the
// faulting access plus the allocation site of the object involved, the way
// ASan and Valgrind print allocation and free backtraces. This package gives
// all engines one vocabulary for that:
//
//   - Frame is a single (function, source line) location.
//   - Stack is an immutable, persistent stack of frames. A node shares its
//     entire tail with its parent, so a captured Stack is one pointer and
//     can never observe later pushes or pops.
//   - Edges is an engine's live call stack: a reusable slice of call edges
//     that a call pushes and pops without allocating. Stack nodes are built
//     only when a stack is captured (a fault, an allocation or a free site),
//     and each built prefix is memoized per depth, so repeated captures in
//     one activation share their nodes and a call that captures nothing
//     costs no node at all. Every engine (managed and native) keeps one.
//   - Diagnostic bundles the classified error with the access stack, the
//     involved object's allocation-site stack and (for use-after-free /
//     double-free) its free-site stack, plus engine/tier provenance.
//
// Diagnostic.Render deliberately excludes the tier: tier-0 (interpreter) and
// tier-1 (JIT) must produce byte-identical reports, and the harness asserts
// they do. Tier stays available as structured data for -json consumers.
package diag

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Frame is one call-stack entry: a function name and a 1-based source line.
// Line 0 means "line unknown" and renders without a line suffix.
type Frame struct {
	Func string `json:"func"`
	Line int    `json:"line,omitempty"`
}

func (f Frame) String() string {
	if f.Line > 0 {
		return fmt.Sprintf("%s (line %d)", f.Func, f.Line)
	}
	return f.Func
}

// node is one link of the persistent stack. Nodes are immutable after
// construction and shared freely across goroutines and captured stacks.
type node struct {
	f      Frame
	parent *node
	depth  int
}

// Stack is an immutable stack of frames, innermost (leaf) first. The zero
// value is the empty stack. Values are cheap to copy (one pointer) and safe
// to retain: a captured Stack shares structure with the live call stack but
// can never observe later pushes or pops.
type Stack struct{ top *node }

// Push returns the stack with f as the new innermost frame. O(1): one node
// allocation, tail shared with the receiver.
func (s Stack) Push(f Frame) Stack {
	d := 1
	if s.top != nil {
		d = s.top.depth + 1
	}
	return Stack{&node{f: f, parent: s.top, depth: d}}
}

// Pop returns the stack without its innermost frame. Popping the empty stack
// returns the empty stack.
func (s Stack) Pop() Stack {
	if s.top == nil {
		return s
	}
	return Stack{s.top.parent}
}

// Top returns the innermost frame, if any.
func (s Stack) Top() (Frame, bool) {
	if s.top == nil {
		return Frame{}, false
	}
	return s.top.f, true
}

// Len reports the number of frames.
func (s Stack) Len() int {
	if s.top == nil {
		return 0
	}
	return s.top.depth
}

// IsEmpty reports whether the stack has no frames.
func (s Stack) IsEmpty() bool { return s.top == nil }

// Frames materializes the stack leaf-first. Only called when a diagnostic is
// rendered or serialized, never on the execution hot path.
func (s Stack) Frames() []Frame {
	if s.top == nil {
		return nil
	}
	out := make([]Frame, 0, s.top.depth)
	for n := s.top; n != nil; n = n.parent {
		out = append(out, n.f)
	}
	return out
}

// FromFrames builds a stack from a leaf-first frame slice (the inverse of
// Frames). Used by JSON decoding and tests.
func FromFrames(frames []Frame) Stack {
	var s Stack
	for i := len(frames) - 1; i >= 0; i-- {
		s = s.Push(frames[i])
	}
	return s
}

// Equal reports whether two stacks hold the same frames. Shared tails make
// the common comparison (same underlying node) O(1).
func (s Stack) Equal(o Stack) bool {
	a, b := s.top, o.top
	for a != b {
		if a == nil || b == nil || a.depth != b.depth || a.f != b.f {
			return false
		}
		a, b = a.parent, b.parent
	}
	return true
}

// String renders the stack one frame per line, ASan-style.
func (s Stack) String() string {
	var b strings.Builder
	writeStack(&b, s, "    ")
	return b.String()
}

func writeStack(b *strings.Builder, s Stack, indent string) {
	for i, f := range s.Frames() {
		fmt.Fprintf(b, "%s#%d %s\n", indent, i, f.String())
	}
}

// MarshalJSON encodes the stack as a leaf-first frame array.
func (s Stack) MarshalJSON() ([]byte, error) {
	frames := s.Frames()
	if frames == nil {
		frames = []Frame{}
	}
	return json.Marshal(frames)
}

// UnmarshalJSON decodes a leaf-first frame array.
func (s *Stack) UnmarshalJSON(data []byte) error {
	var frames []Frame
	if err := json.Unmarshal(data, &frames); err != nil {
		return err
	}
	*s = FromFrames(frames)
	return nil
}

// Edges is a live call stack of edges (caller function, call-site line),
// innermost last. The zero value is empty. Push and Pop allocate nothing
// once the slice has grown to the program's call depth. Stack and StackAt
// build the persistent Stack lazily and memoize each node per depth: a
// capture reuses the node an earlier capture built at the same depth when
// it holds the same frame on the same parent, so captures repeated in one
// activation, or in activations made again and again from one call site,
// share their nodes instead of building new ones.
type Edges struct {
	e []edge
	// leaf is the last StackAt leaf captured with no edge live.
	leaf Stack
}

// edge is one live call edge. stack is the persistent Stack ending in it
// (valid while built; after a push into the slot, the previous one is kept
// as a candidate for reuse), and leaf the last StackAt leaf captured on it.
type edge struct {
	f     Frame
	stack Stack
	leaf  Stack
	built bool
}

// Push records a call edge: the caller's function and the call-site line.
func (s *Edges) Push(fn string, line int) {
	n := len(s.e)
	if n == cap(s.e) {
		s.e = append(s.e, edge{})
	}
	s.e = s.e[:n+1]
	e := &s.e[n]
	e.f, e.built = Frame{Func: fn, Line: line}, false
}

// Pop removes the innermost call edge.
func (s *Edges) Pop() { s.e = s.e[:len(s.e)-1] }

// Top returns the innermost edge's frame, if any.
func (s *Edges) Top() (Frame, bool) {
	if len(s.e) == 0 {
		return Frame{}, false
	}
	return s.e[len(s.e)-1].f, true
}

// Reset empties the stack for a new run, keeping its capacity and
// dropping every memoized node.
func (s *Edges) Reset() {
	clear(s.e[:cap(s.e)])
	s.e = s.e[:0]
	s.leaf = Stack{}
}

// Stack captures the live edges as a persistent Stack, building nodes
// only for the edges no earlier capture has built.
func (s *Edges) Stack() Stack {
	k := len(s.e)
	for k > 0 && !s.e[k-1].built {
		k--
	}
	var st Stack
	if k > 0 {
		st = s.e[k-1].stack
	}
	for ; k < len(s.e); k++ {
		e := &s.e[k]
		st = st.pushOr(e.f, e.stack)
		e.stack, e.built = st, true
	}
	return st
}

// StackAt captures the live edges with f as the innermost frame: the
// backtrace of the instruction at f.
func (s *Edges) StackAt(f Frame) Stack {
	st := s.Stack()
	memo := &s.leaf
	if n := len(s.e); n > 0 {
		memo = &s.e[n-1].leaf
	}
	*memo = st.pushOr(f, *memo)
	return *memo
}

// pushOr returns prev when it is already the stack s.Push(f) would build
// (f on top of s's very nodes), and s.Push(f) otherwise.
func (s Stack) pushOr(f Frame, prev Stack) Stack {
	if prev.top != nil && prev.top.parent == s.top && prev.top.f == f {
		return prev
	}
	return s.Push(f)
}

// Diagnostic is one classified error report with full provenance.
type Diagnostic struct {
	// Kind classifies the error ("out-of-bounds access", "use-after-free",
	// "double free", ...). Stable across engines for the same bug class.
	Kind string `json:"kind"`
	// Message is the one-line, self-explanatory summary (the historical
	// error string, unchanged for compatibility).
	Message string `json:"message"`
	// Tool names the engine family that produced the report (SafeSulong,
	// ASan, Memcheck, Native).
	Tool string `json:"tool,omitempty"`
	// Tier records which execution tier was active at the fault ("interp",
	// "jit", "native"). Provenance only: Render excludes it so tier-0 and
	// tier-1 reports are byte-identical.
	Tier string `json:"tier,omitempty"`
	// Access is the call stack at the faulting access, innermost first.
	Access Stack `json:"accessStack"`
	// Alloc is the call stack at the involved object's allocation site.
	Alloc Stack `json:"allocStack,omitempty"`
	// Free is the call stack at the free that retired the object, for
	// use-after-free and double-free reports.
	Free Stack `json:"freeStack,omitempty"`
}

// Render produces the stable multi-line report: the message, the access
// backtrace, then "allocated by" / "freed by" sections when known. The tier
// is deliberately absent — tier-0 and tier-1 renders must be byte-identical.
func (d *Diagnostic) Render() string {
	var b strings.Builder
	b.WriteString(d.Message)
	if !d.Access.IsEmpty() {
		b.WriteString("\n")
		writeStack(&b, d.Access, "    ")
	}
	if !d.Free.IsEmpty() {
		b.WriteString("freed by:\n")
		writeStack(&b, d.Free, "    ")
	}
	if !d.Alloc.IsEmpty() {
		b.WriteString("allocated by:\n")
		writeStack(&b, d.Alloc, "    ")
	}
	return strings.TrimRight(b.String(), "\n")
}
