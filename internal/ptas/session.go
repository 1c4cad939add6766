package ptas

import (
	"math/big"

	"ccsched/internal/core"
)

// Session state. A scheduling session re-solves a slowly mutating instance
// over and over; SessionState carries everything a completed guess search
// learned that the next search can legally reuse:
//
//   - the guess templates (splittable and preemptive) with their embedded
//     nfold move-set caches and shared block arrays — valid as long as the
//     brick shapes are unchanged, i.e. the accuracy g, the slot budget and
//     the configuration limit match; the per-instance pieces (class loads,
//     job partitions) are re-derived by retarget on every reuse;
//   - the previous accepted guess per probe shape, seeding the next search's
//     boundary window (the seed argument of searchGuesses) before it falls
//     back to the full binary search over the [LB, hi] grid.
//
// No LP state crosses re-solves: a carried Farkas certificate and a carried
// root basis were both tried and never refuted a probe or pruned a root on
// the session workloads, so warm starts stay inside one branch-and-bound
// solve (see internal/lp). The session's feasibility cache lives beside
// this state, in the Options.Cache of its solves.
//
// Both mechanisms are verdict-preserving by construction — templates are
// retargeted at the live instance and the seeded window returns the same
// bracketed boundary the binary search finds — so a session re-solve
// returns a makespan bit-identical to a cold Solve on the mutated instance.
// The end-to-end guarantee is proven by the session differential tests.
//
// A SessionState is NOT safe for concurrent use: it belongs to exactly one
// session, whose re-solves are serialized by the owner.
type SessionState struct {
	split *splitTemplate
	pre   *preTemplate
	seeds map[byte]*sessionSeed
}

// sessionSeed is the per-probe-shape warm state (keyed by the cacheKey
// variant tags).
type sessionSeed struct {
	// guess is the previously accepted makespan guess, in the units of the
	// scale it was found under, valid only for the accuracy g it was found
	// at: a different g means a different rounding grid, where seeding from
	// a foreign boundary could steer a node-capped search to a different
	// (if still certified) outcome — the anytime ladder solves the same
	// session at descending ε, so cross-ε seeds must not leak.
	guess int64
	g     int64
	scale int64
}

// NewSessionState returns empty warm state for one scheduling session.
func NewSessionState() *SessionState {
	return &SessionState{seeds: make(map[byte]*sessionSeed)}
}

// seedFor returns the seed guess for one probe shape, rescaled into the
// current scale when the previous solve ran under a different power-of-two
// scaling. A zero guess means "no seed": a nil state, no previous search of
// this shape, or one at a different accuracy g, in which case the search
// falls back to the cold binary search over the new grid.
func (st *SessionState) seedFor(tag byte, g, scale int64) int64 {
	if st == nil {
		return 0
	}
	s := st.seeds[tag]
	if s == nil || s.g != g {
		return 0
	}
	if s.scale == scale {
		return s.guess
	}
	q := new(big.Int).Mul(big.NewInt(s.guess), big.NewInt(scale))
	q.Quo(q, big.NewInt(s.scale))
	if guess := q.Int64(); guess >= 1 {
		return guess
	}
	return 1
}

// noteSearch records a completed search's accepted guess for the next
// re-solve.
func (st *SessionState) noteSearch(tag byte, g, guess, scale int64) {
	if st == nil {
		return
	}
	st.seeds[tag] = &sessionSeed{guess: guess, g: g, scale: scale}
}

// splitTemplateFor returns the carried splittable template retargeted at in
// when the brick shapes are unchanged (same g, slot budget and configuration
// limit), else builds a fresh one and carries it. A nil state builds
// one-shot templates exactly like the cold path.
func splitTemplateFor(st *SessionState, in *core.Instance, g int64, limit int) (*splitTemplate, error) {
	if st != nil && st.split != nil && st.split.g == g && st.split.limit == limit && st.split.in.Slots == in.Slots {
		st.split.retarget(in)
		return st.split, nil
	}
	tm, err := newSplitTemplate(in, g, limit)
	if err == nil && st != nil {
		st.split = tm
	}
	return tm, err
}

// preTemplateFor is splitTemplateFor for the preemptive scheme.
func preTemplateFor(st *SessionState, in *core.Instance, g int64, limit int) (*preTemplate, error) {
	if st != nil && st.pre != nil && st.pre.g == g && st.pre.limit == limit && st.pre.in.Slots == in.Slots {
		st.pre.retarget(in)
		return st.pre, nil
	}
	tm, err := newPreTemplate(in, g, limit)
	if err == nil && st != nil {
		st.pre = tm
	}
	return tm, err
}

// retarget points a carried splittable template at a mutated instance: the
// enumerations and shared blocks depend only on (g, slots, limit) and stay;
// the class loads and the brick order are re-derived. Only safe between
// searches (a search runs its probes on the caller, so none is in flight).
func (tm *splitTemplate) retarget(in *core.Instance) {
	tm.in = in
	tm.loads = in.ClassLoads()
	tm.classes = tm.classes[:0]
	for u, pu := range tm.loads {
		if pu > 0 {
			tm.classes = append(tm.classes, u)
		}
	}
}

// retarget points a carried preemptive template at a mutated instance; the
// layer geometry, enumerations and per-width block caches all stay.
func (tm *preTemplate) retarget(in *core.Instance) {
	tm.in = in
	tm.byClass = in.ClassJobs()
}
