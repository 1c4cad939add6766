// Package faultinject is a process-wide fault-injection registry for chaos
// testing the solver and serving layers.
//
// Code under test declares named injection points by calling Check (or
// ShortWrite, for byte-stream writes) at failure-relevant places; tests and
// operators arm faults at those points — an injected error, a delay, a
// panic, or a short write — and the chaos suite asserts the process-wide
// invariant: any armed fault yields either a correct result or a clean
// typed error, never a wrong makespan, a leaked goroutine, or a dead
// process.
//
// Disabled (the default, and the production state), the registry costs one
// atomic load per Check: no locks, no map lookups, no allocation. Faults
// arm programmatically (Arm/Clear/Reset), from the CCSCHED_FAULTS
// environment variable, or — in ccserved with -fault-admin — over HTTP at
// /v1/debug/faults.
//
// The injection points threaded through this repository:
//
//	lp.solve               one LP relaxation (SolveBounds)
//	ilp.node               the branch-and-bound loop, per explored node
//	nfold.scan             one augmentation descent step's brick scan
//	ptas.probe             one makespan-guess feasibility probe
//	server.worker          the service flight runner, per picked-up flight
//	server.snapshot.write  one session checkpoint write (incl. disk probes)
//
// Spec strings (CCSCHED_FAULTS, -faults, one or more comma-separated):
//
//	point=error[:msg]      Check returns an *Error at the point
//	point=delay:duration   Check sleeps (e.g. ptas.probe=delay:50ms)
//	point=panic[:msg]      Check panics (recovered by the resilience layer)
//	point=shortwrite       ShortWrite truncates the write and fails it
//
// Any mode takes an optional *N suffix (e.g. ilp.node=panic*2) limiting
// the fault to the first N hits; without it the fault fires on every hit
// until cleared.
package faultinject

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Fault modes.
const (
	// ModeError makes Check return an *Error.
	ModeError = "error"
	// ModeDelay makes Check sleep for Spec.Delay.
	ModeDelay = "delay"
	// ModePanic makes Check panic with the point name and message.
	ModePanic = "panic"
	// ModeShortWrite makes ShortWrite truncate the write and return an
	// *Error; Check ignores it (a short write only makes sense on a write).
	ModeShortWrite = "shortwrite"
)

// ErrInjected is the sentinel wrapped by every injected error, so tests and
// callers can tell a deliberate fault from an organic failure with
// errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Error is one injected failure.
type Error struct {
	// Point names the injection point that fired.
	Point string
	// Msg is the optional operator-supplied message.
	Msg string
}

// Error renders the fault with its point name.
func (e *Error) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("%v at %s: %s", ErrInjected, e.Point, e.Msg)
	}
	return fmt.Sprintf("%v at %s", ErrInjected, e.Point)
}

// Unwrap ties every injected error to ErrInjected for errors.Is.
func (e *Error) Unwrap() error { return ErrInjected }

// Spec describes one armed fault.
type Spec struct {
	// Mode is one of the Mode* constants.
	Mode string `json:"mode"`
	// Delay is the injected latency for ModeDelay.
	Delay time.Duration `json:"delay,omitempty"`
	// Msg is an optional message carried by injected errors and panics.
	Msg string `json:"msg,omitempty"`
	// Hits limits the fault to the first Hits matching Check/ShortWrite
	// calls; 0 fires on every hit until the point is cleared.
	Hits int64 `json:"hits,omitempty"`
}

// PointStatus is one armed point's introspection view (see List).
type PointStatus struct {
	// Point names the injection point.
	Point string `json:"point"`
	// Spec is the armed fault.
	Spec Spec `json:"spec"`
	// Fired counts how many times the fault has fired so far.
	Fired int64 `json:"fired"`
}

// entry is one armed point's registry slot.
type entry struct {
	spec  Spec
	fired atomic.Int64
}

// registry state: armedCount gates the fast path; mu guards the table.
var (
	armedCount atomic.Int32
	mu         sync.Mutex
	table      = map[string]*entry{}
)

// Enabled reports whether any fault is armed; it is the one-atomic-load
// fast path Check takes before touching the table.
func Enabled() bool { return armedCount.Load() > 0 }

// Arm installs (or replaces) the fault at point. Spec.Mode must be one of
// the Mode* constants.
func Arm(point string, spec Spec) error {
	switch spec.Mode {
	case ModeError, ModeDelay, ModePanic, ModeShortWrite:
	default:
		return fmt.Errorf("faultinject: unknown mode %q (want error, delay, panic or shortwrite)", spec.Mode)
	}
	if point == "" {
		return errors.New("faultinject: empty point name")
	}
	mu.Lock()
	defer mu.Unlock()
	if _, exists := table[point]; !exists {
		armedCount.Add(1)
	}
	table[point] = &entry{spec: spec}
	return nil
}

// Clear disarms the fault at point; reports whether one was armed.
func Clear(point string) bool {
	mu.Lock()
	defer mu.Unlock()
	if _, exists := table[point]; !exists {
		return false
	}
	delete(table, point)
	armedCount.Add(-1)
	return true
}

// Reset disarms every fault. Tests defer it so an armed fault never leaks
// into the next test.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armedCount.Add(-int32(len(table)))
	table = map[string]*entry{}
}

// List returns every armed point with its spec and fire count, sorted by
// point name.
func List() []PointStatus {
	mu.Lock()
	defer mu.Unlock()
	out := make([]PointStatus, 0, len(table))
	for p, e := range table {
		out = append(out, PointStatus{Point: p, Spec: e.spec, Fired: e.fired.Load()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Point < out[j].Point })
	return out
}

// Fired reports how many times the fault at point has fired (0 when
// nothing is armed there).
func Fired(point string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if e, ok := table[point]; ok {
		return e.fired.Load()
	}
	return 0
}

// take claims one firing of the fault at point, honoring the Hits budget.
// It returns the spec and whether the fault fires.
func take(point string) (Spec, bool) {
	mu.Lock()
	defer mu.Unlock()
	e, ok := table[point]
	if !ok {
		return Spec{}, false
	}
	if e.spec.Hits > 0 && e.fired.Load() >= e.spec.Hits {
		return Spec{}, false
	}
	e.fired.Add(1)
	return e.spec, true
}

// Check consults the registry at a named injection point. With nothing
// armed anywhere it is a single atomic load. An armed ModeError returns an
// *Error; ModeDelay sleeps and returns nil; ModePanic panics (the
// resilience layer recovers it into an ErrInternal); ModeShortWrite is
// ignored here (see ShortWrite).
func Check(point string) error {
	if armedCount.Load() == 0 {
		return nil
	}
	spec, fire := take(point)
	if !fire {
		return nil
	}
	switch spec.Mode {
	case ModeError:
		return &Error{Point: point, Msg: spec.Msg}
	case ModeDelay:
		time.Sleep(spec.Delay)
		return nil
	case ModePanic:
		msg := spec.Msg
		if msg == "" {
			msg = "armed panic"
		}
		panic(&Error{Point: point, Msg: msg})
	}
	return nil // shortwrite: not a Check-able mode
}

// ShortWrite consults the registry before a write of size bytes at a named
// point. When a ModeShortWrite fault fires it returns n < size (half,
// rounded down — enough bytes to leave a convincing partial file) and the
// injected error; ModeError faults fire here too (n = 0). Other modes
// behave as in Check. With nothing armed it is a single atomic load.
func ShortWrite(point string, size int) (n int, err error) {
	if armedCount.Load() == 0 {
		return size, nil
	}
	spec, fire := take(point)
	if !fire {
		return size, nil
	}
	switch spec.Mode {
	case ModeShortWrite:
		return size / 2, &Error{Point: point, Msg: spec.Msg}
	case ModeError:
		return 0, &Error{Point: point, Msg: spec.Msg}
	case ModeDelay:
		time.Sleep(spec.Delay)
		return size, nil
	case ModePanic:
		msg := spec.Msg
		if msg == "" {
			msg = "armed panic"
		}
		panic(&Error{Point: point, Msg: msg})
	}
	return size, nil
}

// ArmSpecs parses and arms a comma-separated fault list in the
// CCSCHED_FAULTS syntax (see the package comment). It arms points
// left-to-right and stops at the first malformed clause, leaving the
// earlier ones armed.
func ArmSpecs(specs string) error {
	for _, clause := range strings.Split(specs, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		point, spec, err := parseClause(clause)
		if err != nil {
			return err
		}
		if err := Arm(point, spec); err != nil {
			return err
		}
	}
	return nil
}

// parseClause parses one point=mode[:arg][*hits] clause.
func parseClause(clause string) (string, Spec, error) {
	point, rhs, ok := strings.Cut(clause, "=")
	if !ok || point == "" || rhs == "" {
		return "", Spec{}, fmt.Errorf("faultinject: malformed clause %q (want point=mode[:arg][*hits])", clause)
	}
	var spec Spec
	if body, hits, ok := strings.Cut(rhs, "*"); ok {
		n, err := strconv.ParseInt(hits, 10, 64)
		if err != nil || n <= 0 {
			return "", Spec{}, fmt.Errorf("faultinject: bad hit limit in %q", clause)
		}
		spec.Hits = n
		rhs = body
	}
	mode, arg, _ := strings.Cut(rhs, ":")
	spec.Mode = mode
	switch mode {
	case ModeDelay:
		d, err := time.ParseDuration(arg)
		if err != nil || d < 0 {
			return "", Spec{}, fmt.Errorf("faultinject: bad delay in %q", clause)
		}
		spec.Delay = d
	case ModeError, ModePanic:
		spec.Msg = arg
	case ModeShortWrite:
		if arg != "" {
			return "", Spec{}, fmt.Errorf("faultinject: shortwrite takes no argument in %q", clause)
		}
	default:
		return "", Spec{}, fmt.Errorf("faultinject: unknown mode %q in %q", mode, clause)
	}
	return point, spec, nil
}
