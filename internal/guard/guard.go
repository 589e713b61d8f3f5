// Package guard is the per-binary fault boundary of the analysis
// pipeline: the one place a panic raised while analyzing a binary is
// converted into an error, so a hostile or corrupt image costs its own
// result and never the process.
//
// The conversion is applied at every choke point a panic could escape
// through — the public frontend (bside.analyzeData), each pipeline
// stage body, the intra-binary worker-pool units (a panic in a
// goroutine is fatal unless recovered in that same goroutine), and the
// resolver's library flights (each runs on its own goroutine, and an
// unrecovered panic there would also strand every waiting peer). All of
// them funnel through Capture/Capture1, so "what happens when analysis
// code panics" has exactly one answer: a *PanicError carrying the
// stage, the image hash, and the panicking goroutine's stack.
//
// Results derived from a PanicError are never memoized and never enter
// the cache tiers: every store in the codebase is gated on a nil error
// (or, for stored budget verdicts, on an unwrapped count-limited
// ident.BudgetError), and the resolver's library memo skips failed
// computations.
package guard

import (
	"errors"
	"fmt"
	"runtime"
)

// PanicError is a panic converted into an error at a fault boundary.
type PanicError struct {
	// Stage names the boundary the panic surfaced at: a pipeline stage
	// ("decode", "wrappers", "identify"), "unit" for a worker-pool
	// unit, "library" for a library load or interface flight, or
	// "frontend" for the public entry seam. Inner boundaries win: a
	// panic in an identification unit reports "unit"-level context
	// enriched by the stage wrapper, not overwritten by it.
	Stage string `json:"stage"`
	// Hash is the content hash of the image (or the library's flight
	// key) being analyzed; empty when the panic predates hashing.
	Hash string `json:"hash,omitempty"`
	// Value is the recovered panic value.
	Value any `json:"value"`
	// Stack is the panicking goroutine's stack at recovery time.
	Stack []byte `json:"-"`
}

// Error renders the boundary context and the panic value; the stack is
// kept off the message (it is operator/diagnostic payload, not
// request-error text) and travels on the struct.
func (e *PanicError) Error() string {
	if e.Hash != "" {
		return fmt.Sprintf("analysis panicked in stage %s (image %s): %v", e.Stage, e.Hash, e.Value)
	}
	return fmt.Sprintf("analysis panicked in stage %s: %v", e.Stage, e.Value)
}

// AsPanic unwraps err to its PanicError, if it carries one.
func AsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// annotate fills boundary context a deeper capture could not know: a
// PanicError born in a worker-pool unit (no stage, no hash in scope)
// gets them stamped by the enclosing stage boundary on the way out.
func annotate(err error, stage, hash string) error {
	if pe, ok := AsPanic(err); ok {
		if pe.Stage == "" {
			pe.Stage = stage
		} else if pe.Stage == "unit" && stage != "" {
			pe.Stage = stage + "/unit"
		}
		if pe.Hash == "" {
			pe.Hash = hash
		}
	}
	return err
}

// Capture runs fn inside the fault boundary: a panic becomes a
// *PanicError tagged with stage and hash, and a *PanicError returned
// from a deeper boundary has its missing context filled in.
func Capture(stage, hash string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = toPanicError(r, stage, hash)
		}
	}()
	return annotate(fn(), stage, hash)
}

// Capture1 is Capture for value-returning computations (the library
// flights and the public frontend). On panic the value is the zero T.
func Capture1[T any](stage, hash string, fn func() (T, error)) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			var zero T
			val, err = zero, toPanicError(r, stage, hash)
		}
	}()
	val, err = fn()
	return val, annotate(err, stage, hash)
}

// stackBytes bounds the captured stack: enough for triage, never
// unbounded (a deep recursion panic must not turn into a huge error).
const stackBytes = 16 << 10

func toPanicError(r any, stage, hash string) error {
	// A panic that is itself an already-converted PanicError (re-thrown
	// across a boundary) keeps its original context.
	if pe, ok := r.(*PanicError); ok {
		return annotate(pe, stage, hash)
	}
	buf := make([]byte, stackBytes)
	buf = buf[:runtime.Stack(buf, false)]
	return &PanicError{Stage: stage, Hash: hash, Value: r, Stack: buf}
}
