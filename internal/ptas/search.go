package ptas

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"ccsched/internal/panicsafe"
	"ccsched/internal/trace"
)

// recoveredPanic reports whether err carries a recovered engine panic. A
// panic indicates a bug, not an infeasible or over-budget search: masking it
// behind the graceful approx fallback would hide the defect and break the
// contract that panics surface as typed internal errors, so every fallback
// site propagates these instead of degrading.
func recoveredPanic(err error) bool {
	var pe *panicsafe.Error
	return errors.As(err, &pe)
}

// The makespan-guess search. Feasibility of a guess T is monotone for the
// paper's schemes (Lemma 7's dual approximation: any schedule for T is a
// schedule for T' > T), so the search is a binary search over the (1+δ)
// guess grid. In practice the predicate the code evaluates is only *almost*
// monotone — the budgeted augmentation/branch-and-bound engines may reject a
// feasible guess (nudging the accepted makespan up one grid step) — so a
// parallel search must not change which probes decide the outcome, or
// results would depend on the worker count.
//
// The parallel search therefore speculates on the binary-search probe tree
// rather than multisecting the interval: the walk follows exactly the
// sequential probe sequence, while a pool of Parallelism workers prefetches
// the probes the walk could need next (the tree descendants of the current
// interval, in breadth-first order — the most-likely-needed first). Verdicts
// that narrow the interval cancel every in-flight probe outside it via
// context.Context; cancellation reaches the N-fold engines at iteration
// boundaries (see nfold.SolveCtx), so losing speculative ILP solves stop
// promptly instead of holding their worker slot. The accepted guess, the
// payload, and the probe count are bit-identical to the sequential search by
// construction, for any Parallelism.

// guessProbe is one grid index's verdict, memoized for the walk. In a
// speculative search done is closed exactly once — after a worker ran the
// probe, or drained it as cancelled — so the walk can always wait on it; a
// sequential search leaves done nil and runs the probe when first asked.
type guessProbe[T any] struct {
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}
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
// true) when the guess is accepted and honor its context.
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
//
// parallelism ≤ 1 runs every probe on the calling goroutine, the first time
// its verdict is asked for. Larger values start a prefetch pool: workers
// claim the lowest-ranked unclaimed probe (rank = breadth-first probe-tree
// order) off an atomic cursor, so claims happen in strict rank order by
// construction. A subtree's level order is a subsequence of the full tree's
// and the subtree root (the walk's next need) has strictly smaller depth
// than every other pending probe, so the walk's own probe is always the
// next one a freed worker picks up — speculation never starves the walk.
// Cancelled probes are drained (done closed with the context error) rather
// than skipped, so every probe's done channel closes exactly once.
func searchGuesses[T any](ctx context.Context, grid []int64, parallelism int, seed int64, sp trace.Span, feasibleAt func(context.Context, int64) (T, bool, error)) (T, int64, int, error) {
	var zero T
	probes := make([]guessProbe[T], len(grid))
	speculative := parallelism > 1 && len(grid) > 1
	if speculative {
		sctx, scancel := context.WithCancel(ctx)
		var workers sync.WaitGroup
		// Cancel every in-flight probe, then wait for the workers: no
		// feasibleAt call may outlive the search, as it reads the caller's
		// instance.
		defer func() {
			scancel()
			workers.Wait()
		}()
		prefetch(sctx, grid, probes, parallelism, &workers, feasibleAt)
	}
	tried := 0
	verdict := func(i int) *guessProbe[T] {
		p := &probes[i]
		if !p.asked {
			p.asked = true
			tried++
			if p.done != nil {
				<-p.done
			} else {
				p.payload, p.ok, p.err = feasibleAt(ctx, grid[i])
			}
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
	// The cancellation frontier: everything in [prevLo, prevHi] is still
	// live, everything outside was already cancelled by an earlier verdict.
	// Each verdict therefore cancels only the newly excluded indices —
	// O(grid) total over the whole search instead of O(grid²).
	prevLo, prevHi := lo, hi
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
		if speculative {
			// Probes that just left the interval can never be consumed: stop
			// their speculative ILP solves so the workers move to live
			// branches.
			for i := prevLo; i < lo && i <= prevHi; i++ {
				probes[i].cancel()
			}
			for i := prevHi; i > hi && i >= prevLo; i-- {
				probes[i].cancel()
			}
			prevLo, prevHi = lo, hi
		}
	}
	bsp.End(trace.A("probes", int64(tried-pre)))
	if best < 0 {
		return zero, 0, tried, fmt.Errorf("ptas: no feasible guess in grid (top %d should be feasible)", grid[len(grid)-1])
	}
	return probes[best].payload, grid[best], tried, nil
}

// prefetch starts the speculative pool of searchGuesses: min(parallelism,
// len(grid)) workers, tracked by workers, that run the grid's probes in
// probe-tree order, each under its own context derived from ctx.
func prefetch[T any](ctx context.Context, grid []int64, probes []guessProbe[T], parallelism int, workers *sync.WaitGroup, feasibleAt func(context.Context, int64) (T, bool, error)) {
	for i := range probes {
		probes[i].ctx, probes[i].cancel = context.WithCancel(ctx)
		probes[i].done = make(chan struct{})
	}
	order := probeTreeOrder(0, len(grid)-1)
	// More workers than probes is pure overhead (and an unbounded
	// caller-supplied parallelism would fork that many goroutines).
	parallelism = min(parallelism, len(order))
	var next atomic.Int64 // index into order: probes claimed so far
	workers.Add(parallelism)
	for w := 0; w < parallelism; w++ {
		go func() {
			defer workers.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(order) {
					return
				}
				p := &probes[order[k]]
				if p.err = p.ctx.Err(); p.err == nil {
					p.payload, p.ok, p.err = runProbe(p.ctx, grid[order[k]], feasibleAt)
				}
				close(p.done)
			}
		}()
	}
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

// runProbe evaluates one speculative probe, converting a panic inside the
// feasibility predicate into a *panicsafe.Error delivered through the probe's
// err slot — a panic on a search worker goroutine must never kill the
// process; the walker surfaces it like any other probe error.
func runProbe[T any](ctx context.Context, guess int64, feasibleAt func(context.Context, int64) (T, bool, error)) (payload T, ok bool, err error) {
	defer panicsafe.Recover(&err, "guess_probe")
	return feasibleAt(ctx, guess)
}

// probeTreeOrder lists the grid indices of [lo, hi] in breadth-first
// binary-search-tree order: the midpoint first, then the midpoints both its
// verdicts could lead to, and so on.
func probeTreeOrder(lo, hi int) []int {
	type iv struct{ a, b int }
	var out []int
	queue := []iv{{lo, hi}}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if v.a > v.b {
			continue
		}
		m := (v.a + v.b) / 2
		out = append(out, m)
		queue = append(queue, iv{v.a, m - 1}, iv{m + 1, v.b})
	}
	return out
}
