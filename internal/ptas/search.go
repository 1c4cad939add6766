package ptas

import (
	"fmt"
	"sort"

	"ccsched/internal/trace"
)

// The makespan-guess search. Feasibility of a guess T is monotone for the
// paper's schemes (Lemma 7's dual approximation: any schedule for T is a
// schedule for T' > T), so the search is a binary search over the (1+δ)
// guess grid. In practice the predicate the code evaluates is only *almost*
// monotone — the budgeted augmentation/branch-and-bound engines may reject a
// feasible guess (nudging the accepted makespan up one grid step) — so the
// outcome depends on which probes decide it, and the search fixes that
// sequence: every probe runs on the calling goroutine, the first time the
// walk asks for its verdict, and no other probe runs at all. Callers that
// want more cores run independent solves concurrently over a shared Cache.

// guessProbe is one grid index's verdict, memoized for the walk: the seeded
// window's verdicts are re-consumed for free by the binary search.
type guessProbe[T any] struct {
	asked   bool // the walk consumed this verdict (counted in tried)
	payload T
	ok      bool
	err     error
}

// seedWindow bounds how far the seeded search walks from the seed position
// before falling back to the full binary search. Churn re-solves move the
// boundary by at most a grid step or two; a wider window would only delay
// the fallback on the rare large jumps.
const seedWindow = 3

// searchGuesses returns the payload of the smallest accepted guess, the
// guess itself and the number of distinct guesses whose verdict the walk
// consumed (a probe that fails counts). feasibleAt must return (payload,
// true) when the guess is accepted; it runs exactly once per consumed
// guess, on the calling goroutine, and an error it returns (a canceled
// context, a budget overrun) ends the search.
//
// A positive seed (a session re-solve's previous accepted guess) first walks
// outward from the seed's grid position to bracket the boundary — the
// smallest accepted guess whose predecessor is rejected — within seedWindow
// probes; when the window misses, the binary search runs and re-consumes the
// window's verdicts for free. For a monotone predicate (Lemma 7) the
// bracketed boundary IS the binary search's answer; the budgeted engines'
// rare monotonicity violations are guarded end to end by the session
// differential tests. sp is the enclosing trace span: the seeded walk shows
// up as a seed_window span (attrs: probes walked, whether it bracketed the
// boundary) and the binary search as a binary_search span.
func searchGuesses[T any](grid []int64, seed int64, sp trace.Span, feasibleAt func(int64) (T, bool, error)) (T, int64, int, error) {
	var zero T
	probes := make([]guessProbe[T], len(grid))
	tried := 0
	verdict := func(i int) *guessProbe[T] {
		p := &probes[i]
		if !p.asked {
			p.asked = true
			tried++
			p.payload, p.ok, p.err = feasibleAt(grid[i])
		}
		return p
	}
	if seed > 0 && len(grid) > 1 {
		wsp := sp.Child("seed_window")
		at, err := seedBoundary(grid, seed, verdict)
		switch {
		case err != nil:
			wsp.End(trace.A("probes", int64(tried)), trace.A("err", 1))
			return zero, 0, tried, err
		case at >= 0:
			wsp.End(trace.A("probes", int64(tried)), trace.A("hit", 1))
			return probes[at].payload, grid[at], tried, nil
		}
		wsp.End(trace.A("probes", int64(tried)), trace.A("hit", 0))
	}
	bsp := sp.Child("binary_search")
	pre := tried
	best := -1
	lo, hi := 0, len(grid)-1
	// The top of the grid comes from a feasible schedule, so hi accepts.
	for lo <= hi {
		mid := (lo + hi) / 2
		p := verdict(mid)
		if p.err != nil {
			bsp.End(trace.A("probes", int64(tried-pre)), trace.A("err", 1))
			return zero, 0, tried, p.err
		}
		if p.ok {
			best, hi = mid, mid-1
		} else {
			lo = mid + 1
		}
	}
	bsp.End(trace.A("probes", int64(tried-pre)))
	if best < 0 {
		return zero, 0, tried, fmt.Errorf("ptas: no feasible guess in grid (top %d should be feasible)", grid[len(grid)-1])
	}
	return probes[best].payload, grid[best], tried, nil
}

// seedBoundary walks at most seedWindow probes outward from the seed's grid
// position: down from an accepted start until a reject, up from a rejected
// one until an accept. It returns the bracketed boundary's index — an
// accept whose predecessor rejects, or an accepted grid bottom — or -1 when
// the window misses it.
func seedBoundary[T any](grid []int64, seed int64, verdict func(int) *guessProbe[T]) (int, error) {
	i0 := min(sort.Search(len(grid), func(i int) bool { return grid[i] >= seed }), len(grid)-1)
	p := verdict(i0)
	if p.err != nil {
		return -1, p.err
	}
	if p.ok {
		for i := i0 - 1; i >= max(0, i0-seedWindow); i-- {
			if p := verdict(i); p.err != nil || !p.ok {
				return i + 1, p.err
			}
		}
		if i0 <= seedWindow {
			return 0, nil // accepted all the way down to the grid bottom
		}
		return -1, nil
	}
	for i := i0 + 1; i <= min(len(grid)-1, i0+seedWindow); i++ {
		if p := verdict(i); p.err != nil || p.ok {
			return i, p.err
		}
	}
	return -1, nil
}
