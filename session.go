package ccsched

import (
	"context"
	"fmt"
	"sync"
)

// A Session is a live scheduling instance that accepts deltas — jobs
// arriving, finishing and changing size, machines joining and leaving — and
// re-solves incrementally: each re-solve is exactly Solve over the session's
// private feasibility cache, which the session keeps across solves. The
// cache is keyed on each probe's derived data (the rounded class loads or
// grouped job sizes), so after a small delta most guess probes are answered
// from it. Cache hits are verdict-preserving, so a session re-solve returns
// a makespan bit-identical to a cold Solve of the mutated instance — only
// faster; the session differential tests prove the equivalence across
// random delta streams on every generator family.
//
// Jobs are addressed by stable ids (int64) minted by NewSession and
// AddJobs, so removals never invalidate handles. Schedules in a session's
// Result index jobs by their current position; JobIDs returns the parallel
// id slice for translating positions back to handles.
//
// A Session is safe for concurrent use; deltas and solves serialize on an
// internal mutex (Solve reads the instance that deltas mutate in place).
// Deltas only mutate the instance — the next Solve picks them all up at
// once.
type Session struct {
	mu     sync.Mutex
	in     *Instance
	ids    []int64
	nextID int64
	opts   Options
	// gen counts instance mutations; last/lastGen implement the no-delta
	// fast path (last is current iff lastGen == gen) and let SolveSnapshot
	// decide whether a result computed from an older snapshot may be
	// installed as current.
	gen      uint64
	last     *Result
	lastGen  uint64
	resolves int64
}

// NewSession starts a session on a copy of in (later deltas never touch the
// caller's instance). Unless opts names a cache explicitly, the session gets
// its own feasibility cache, so its guess verdicts stay hot under the
// session and are evicted with it; that cache is all a session carries from
// one solve to the next. The initial solve happens on the first Solve call.
func NewSession(in *Instance, opts Options) (*Session, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	switch opts.Variant {
	case Splittable, Preemptive, NonPreemptive:
	default:
		return nil, fmt.Errorf("ccsched: unknown variant %v", opts.Variant)
	}
	if opts.Cache == nil && !opts.NoCache {
		opts.Cache = NewFeasibilityCache()
	}
	s := &Session{in: in.Clone(), opts: opts, gen: 1}
	s.ids = make([]int64, in.N())
	for i := range s.ids {
		s.nextID++
		s.ids[i] = s.nextID
	}
	return s, nil
}

// Instance returns a deep copy of the session's current instance, with jobs
// in the session's current order (parallel to JobIDs).
func (s *Session) Instance() *Instance {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.in.Clone()
}

// JobIDs returns the stable id of every current job, parallel to the
// session instance's job order.
func (s *Session) JobIDs() []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int64(nil), s.ids...)
}

// Resolves reports how many solves the session has actually run (returns of
// an unchanged cached result not included).
func (s *Session) Resolves() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolves
}

// Generation returns the session's mutation counter: it increases with
// every applied delta, so a caller that remembers the value from its last
// checkpoint can tell cheaply whether the session is dirty.
func (s *Session) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// Options returns the session's solve options. The feasibility cache is not
// part of the answer (it is session-private state, never shared by handle).
func (s *Session) Options() Options {
	s.mu.Lock()
	defer s.mu.Unlock()
	opts := s.opts
	opts.Cache = nil
	return opts
}

// AddJobs appends jobs (processing time p[i], class class[i]) and returns
// their stable ids. The delta takes effect at the next Solve.
func (s *Session) AddJobs(p []int64, class []int) ([]int64, error) {
	if len(p) != len(class) {
		return nil, fmt.Errorf("ccsched: %d processing times but %d classes", len(p), len(class))
	}
	for i := range p {
		if p[i] <= 0 {
			return nil, fmt.Errorf("ccsched: job %d has non-positive processing time %d", i, p[i])
		}
		if class[i] < 0 {
			return nil, fmt.Errorf("ccsched: job %d has negative class %d", i, class[i])
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int64, len(p))
	for i := range p {
		s.in.P = append(s.in.P, p[i])
		s.in.Class = append(s.in.Class, class[i])
		s.nextID++
		s.ids = append(s.ids, s.nextID)
		out[i] = s.nextID
	}
	s.gen++
	return out, nil
}

// RemoveJobs deletes the jobs with the given ids, preserving the order of
// the rest. Unknown ids fail the whole call without applying anything.
func (s *Session) RemoveJobs(ids ...int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	drop := make(map[int64]bool, len(ids))
	for _, id := range ids {
		drop[id] = true
	}
	found := 0
	for _, id := range s.ids {
		if drop[id] {
			found++
		}
	}
	if found != len(drop) {
		return fmt.Errorf("ccsched: RemoveJobs: %d of %d ids unknown", len(drop)-found, len(drop))
	}
	w := 0
	for r, id := range s.ids {
		if drop[id] {
			continue
		}
		s.ids[w] = id
		s.in.P[w] = s.in.P[r]
		s.in.Class[w] = s.in.Class[r]
		w++
	}
	s.ids = s.ids[:w]
	s.in.P = s.in.P[:w]
	s.in.Class = s.in.Class[:w]
	s.gen++
	return nil
}

// Resize changes the processing time of one job.
func (s *Session) Resize(id, p int64) error {
	if p <= 0 {
		return fmt.Errorf("ccsched: Resize: non-positive processing time %d", p)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, jid := range s.ids {
		if jid == id {
			s.in.P[i] = p
			s.gen++
			return nil
		}
	}
	return fmt.Errorf("ccsched: Resize: unknown job id %d", id)
}

// SetMachines changes the machine count.
func (s *Session) SetMachines(m int64) error {
	if m < 1 {
		return fmt.Errorf("ccsched: SetMachines: need at least one machine, got %d", m)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.in.M = m
	s.gen++
	return nil
}

// SetSlots changes the per-machine class-slot budget. The slot budget is
// part of every cache key, so the next Solve finds no cached verdicts.
func (s *Session) SetSlots(c int) error {
	if c < 1 {
		return fmt.Errorf("ccsched: SetSlots: need at least one class slot, got %d", c)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.in.Slots = c
	s.gen++
	return nil
}

// Solve re-solves the session's current instance over the session's
// feasibility cache and returns the result (jobs indexed in the session's
// current order; see JobIDs). When nothing changed since the last solve the
// cached result is returned as is. The returned Result is shared — treat it
// as immutable. Cancellation and deadlines propagate exactly as in Solve;
// a canceled solve leaves the session consistent and still dirty, so the
// next Solve retries.
func (s *Session) Solve(ctx context.Context) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last != nil && s.lastGen == s.gen {
		return s.last, nil
	}
	res, err := Solve(ctx, s.in, s.opts)
	if err != nil {
		return nil, err
	}
	s.last, s.lastGen = res, s.gen
	s.resolves++
	return res, nil
}

// Snapshot returns a deep copy of the current instance, the matching job
// ids, and the session's generation counter. Pass all three to
// SolveSnapshot to solve exactly this state even if deltas land in
// between (the pattern the HTTP session pipeline uses for queued
// re-solves).
func (s *Session) Snapshot() (*Instance, []int64, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.in.Clone(), append([]int64(nil), s.ids...), s.gen
}

// SolveSnapshot solves a Snapshot-returned instance over the session's
// feasibility cache. The result is installed as the session's current result only
// when gen still matches the session's generation — a solve of an outdated
// snapshot returns its (snapshot-consistent) result without clobbering the
// newer state, so callers that keyed work off the snapshot always receive
// the result matching their key.
func (s *Session) SolveSnapshot(ctx context.Context, in *Instance, gen uint64) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last != nil && s.lastGen == gen && gen == s.gen {
		return s.last, nil
	}
	res, err := Solve(ctx, in, s.opts)
	if err != nil {
		return nil, err
	}
	if gen == s.gen {
		s.last, s.lastGen = res, gen
	}
	s.resolves++
	return res, nil
}
