package ptas

import "fmt"

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

// searchGuesses returns the payload of the smallest accepted guess, the
// guess itself and the number of guesses whose verdict the walk consumed (a
// probe that fails counts). feasibleAt must return (payload, true) when the
// guess is accepted; it runs exactly once per consumed guess, on the
// calling goroutine, and an error it returns (a canceled context, a budget
// overrun) ends the search.
func searchGuesses[T any](grid []int64, feasibleAt func(int64) (T, bool, error)) (T, int64, int, error) {
	var best T
	at, tried := -1, 0
	lo, hi := 0, len(grid)-1
	// The top of the grid comes from a feasible schedule, so hi accepts.
	for lo <= hi {
		mid := (lo + hi) / 2
		tried++
		payload, ok, err := feasibleAt(grid[mid])
		if err != nil {
			var zero T
			return zero, 0, tried, err
		}
		if ok {
			best, at, hi = payload, mid, mid-1
		} else {
			lo = mid + 1
		}
	}
	if at < 0 {
		return best, 0, tried, fmt.Errorf("ptas: no feasible guess in grid (top %d should be feasible)", grid[len(grid)-1])
	}
	return best, grid[at], tried, nil
}
