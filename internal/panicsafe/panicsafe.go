// Package panicsafe converts panics in solver code into typed errors.
//
// A panic anywhere in the LP → ILP → N-fold → PTAS pipeline used to kill
// the whole process: the guess search runs speculative probes on worker
// goroutines, and a panic on any of them cannot be recovered by the
// caller. This package provides the two halves of the containment protocol:
//
//   - Worker goroutines recover themselves and convert the panic into an
//     *Error (Capture), which travels to the joining goroutine through the
//     worker's normal result channel — or, where the joiner re-panics with
//     the captured value, keeps its original stack and label through any
//     number of hops (Capture passes *Error values through untouched).
//   - Boundary functions — ccsched.Solve and the service's flight runner —
//     defer Recover, so whatever reaches them surfaces as an error wrapping
//     ErrInternal instead of unwinding the process.
//
// The resulting error carries the panic value, the stack captured at the
// original recovery site, and the label of the component (mirroring the
// solve-trace span names) that panicked, so an ErrInternal in a log or an
// HTTP 500 body is attributable without a core dump.
package panicsafe

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// ErrInternal is the sentinel wrapped by every recovered panic. Callers
// branch with errors.Is(err, ErrInternal); it is re-exported as
// ccsched.ErrInternal.
var ErrInternal = errors.New("internal error (recovered panic)")

// Error is one recovered panic as a typed error.
type Error struct {
	// Value is the value the panic was raised with.
	Value any
	// Stack is the goroutine stack captured at the original recovery site
	// (not at any later re-panic hop).
	Stack []byte
	// Span labels the component that panicked, mirroring the solve-trace
	// span vocabulary ("guess_probe", "solve", "flight").
	Span string
}

// Error renders the panic value and its component label; the stack is kept
// for logs (see Stack) rather than inlined into every message.
func (e *Error) Error() string {
	return fmt.Sprintf("%v in %s: %v", ErrInternal, e.Span, e.Value)
}

// Unwrap ties every recovered panic to ErrInternal for errors.Is.
func (e *Error) Unwrap() error { return ErrInternal }

// Capture converts a recover() value into an *Error labeled with span,
// grabbing the current goroutine's stack. A value that is already an
// *Error — a worker's captured panic re-raised on the joining goroutine —
// passes through untouched, keeping the original stack and label.
func Capture(v any, span string) *Error {
	if pe, ok := v.(*Error); ok {
		return pe
	}
	return &Error{Value: v, Stack: debug.Stack(), Span: span}
}

// Recover is the deferred boundary helper:
//
//	defer panicsafe.Recover(&err, "solve")
//
// On panic it stores the captured *Error into *errp; without one it leaves
// *errp alone. It must be the deferred function itself (not called from
// inside another deferred function), or recover() sees nothing.
func Recover(errp *error, span string) {
	if v := recover(); v != nil {
		*errp = Capture(v, span)
	}
}
