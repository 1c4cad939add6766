package server

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"slices"

	"ccsched"
)

// Canonicalization. Requests are deduplicated — both singleflight coalescing
// of in-flight solves and the full-result LRU — by a digest of the instance
// in a canonical form that is invariant under the two symmetries of the CCS
// problem a client is likely to exercise: permuting the job list and
// relabeling classes. Two requests whose instances differ only by job order
// or class names therefore cost one solve, and each response is mapped back
// to the submitter's own job indices through a per-request permutation.
//
// Canonical form: jobs are grouped by class and sorted by processing time
// within each class; classes are ordered by their sorted processing-time
// lists (lexicographically, shorter first on equal prefixes) and renumbered
// 0..C-1 in that order. Classes with identical lists are interchangeable, so
// any deterministic tie-break yields the same canonical instance. The slot
// budget is capped at min(c, C, n) exactly like Instance.Normalize.

// canonical is an instance in canonical form plus the permutation linking it
// to the submitter's original job order.
type canonical struct {
	in *ccsched.Instance
	// perm[i] is the original index of canonical job i.
	perm []int
}

// canonicalize rewrites in into canonical form. The input is not modified.
func canonicalize(in *ccsched.Instance) canonical {
	n := in.N()
	sorted := sortedJobs(in)
	// Cut the runs and order them by their processing-time lists. The sort
	// is stable and the runs start in label order, so identical lists keep
	// the original label as tie-break (they are interchangeable classes, so
	// the canonical instance does not depend on the tie order).
	var runs [][]int
	for lo := 0; lo < n; {
		hi := lo + 1
		for hi < n && in.Class[sorted[hi]] == in.Class[sorted[lo]] {
			hi++
		}
		runs = append(runs, sorted[lo:hi])
		lo = hi
	}
	slices.SortStableFunc(runs, func(ja, jb []int) int {
		for k := 0; k < len(ja) && k < len(jb); k++ {
			if c := cmp.Compare(in.P[ja[k]], in.P[jb[k]]); c != 0 {
				return c
			}
		}
		return cmp.Compare(len(ja), len(jb))
	})
	out := &ccsched.Instance{
		P:     make([]int64, 0, n),
		Class: make([]int, 0, n),
		M:     in.M,
		Slots: in.Slots,
	}
	perm := make([]int, 0, n)
	for rank, jobs := range runs {
		for _, j := range jobs {
			out.P = append(out.P, in.P[j])
			out.Class = append(out.Class, rank)
			perm = append(perm, j)
		}
	}
	if cc := len(runs); out.Slots > cc && cc > 0 {
		out.Slots = cc
	}
	if out.Slots > n && n > 0 {
		out.Slots = n
	}
	return canonical{in: out, perm: perm}
}

// sortedJobs returns the job indices sorted by (class, p, index), which
// groups each class into a run ordered by processing time, equal times by
// index. Dense labels (all in [0, 4n+64), the bound core uses for its
// machine-indexed slices) are counting-sorted into runs in index order,
// each then sorted by p, stably; other labels take one comparison sort.
func sortedJobs(in *ccsched.Instance) []int {
	n := in.N()
	perm := make([]int, n)
	maxLabel, dense := -1, true
	for _, c := range in.Class {
		if c < 0 || c >= 4*n+64 {
			dense = false
			break
		}
		maxLabel = max(maxLabel, c)
	}
	if !dense {
		for j := range perm {
			perm[j] = j
		}
		slices.SortFunc(perm, func(a, b int) int {
			if c := cmp.Compare(in.Class[a], in.Class[b]); c != 0 {
				return c
			}
			if c := cmp.Compare(in.P[a], in.P[b]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		return perm
	}
	// end[c] starts as the first slot of class c's run and ends one past
	// its last.
	end := make([]int, maxLabel+2)
	for _, c := range in.Class {
		end[c+1]++
	}
	for c := 1; c < len(end); c++ {
		end[c] += end[c-1]
	}
	for j, c := range in.Class {
		perm[end[c]] = j
		end[c]++
	}
	lo := 0
	for _, hi := range end[:maxLabel+1] {
		sortRunByP(in.P, perm[lo:hi])
		lo = hi
	}
	return perm
}

// sortRunByP stably sorts a run of job indices by processing time: by
// insertion up to 16 jobs, as core's per-class lists are sorted.
func sortRunByP(p []int64, run []int) {
	if len(run) > 16 {
		slices.SortStableFunc(run, func(a, b int) int { return cmp.Compare(p[a], p[b]) })
		return
	}
	for i := 1; i < len(run); i++ {
		j, pj := run[i], p[run[i]]
		k := i
		for ; k > 0 && p[run[k-1]] > pj; k-- {
			run[k] = run[k-1]
		}
		run[k] = j
	}
}

// key identifies one unit of solver work: a canonical instance plus every
// option that can influence the result.
type key [sha256.Size]byte

// requestKey digests the canonical instance together with the
// result-affecting options. Caching knobs are excluded — Solve guarantees
// bit-identical results for any setting of them — and
// TierAuto resolves to TierPTAS (and ε to its 0.5 default) so equivalent
// requests share one entry.
func requestKey(canon *ccsched.Instance, opts ccsched.Options) key {
	h := sha256.New()
	// Values are written as 8-byte little-endian words, a block of them
	// per Write.
	var block [64 * 8]byte
	buf := block[:0]
	put := func(v int64) {
		if len(buf) == len(block) {
			h.Write(buf)
			buf = block[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	put(canon.M)
	put(int64(canon.Slots))
	put(int64(canon.N()))
	for _, p := range canon.P {
		put(p)
	}
	for _, c := range canon.Class {
		put(int64(c))
	}
	tier := opts.Tier
	if tier == ccsched.TierAuto {
		tier = ccsched.TierPTAS
	}
	eps := opts.Epsilon
	if tier != ccsched.TierPTAS && tier != ccsched.TierAnytime {
		eps = 0 // ignored by the approx and exact tiers
	} else if eps == 0 {
		eps = 0.5 // Solve's default (also the anytime terminal rung's)
	}
	put(int64(opts.Variant))
	put(int64(tier))
	put(int64(math.Float64bits(eps)))
	put(int64(opts.MaxNodes))
	put(int64(opts.MaxConfigs))
	put(opts.HugeMThreshold)
	put(opts.ExplicitMachineLimit)
	// Trace changes the Result shape (Result.Trace), not the verdict, but a
	// traced and an untraced request must not share a cached result: the
	// untraced flight's entry would answer a ?trace=1 request with no trace.
	if opts.Trace {
		put(2)
	}
	// FallbackTier changes what a deadline expiry returns (a degraded
	// 2-approx instead of an error), so fallback and non-fallback requests
	// must not share a flight or a cache entry.
	if opts.FallbackTier == ccsched.TierApprox {
		put(3)
	}
	h.Write(buf)
	var k key
	h.Sum(k[:0])
	return k
}

// degradedKey derives the result-LRU key under which a request key's
// degraded 2-approx answer is stored. Keeping degraded results under a
// distinct key means they can never satisfy a normal submission (no LRU
// poisoning); the full-tier publish of k removes its degraded twin, so later
// requests get the full answer.
func degradedKey(k key) key {
	h := sha256.New()
	h.Write(k[:])
	h.Write([]byte("degraded"))
	var dk key
	h.Sum(dk[:0])
	return dk
}

// invertPerm returns the inverse permutation: out[perm[i]] = i. Used to map
// a session-order result into canonical order for publication (the reverse
// direction of remapResult).
func invertPerm(perm []int) []int {
	out := make([]int, len(perm))
	for i, p := range perm {
		out[p] = i
	}
	return out
}

// remapResult translates a canonical-form result back into the submitter's
// original job indices using its permutation. Schedules are copied (the
// canonical result is shared across requests and must stay immutable);
// rationals and the report are shared, as they are never mutated.
func remapResult(res *ccsched.Result, perm []int) *ccsched.Result {
	out := *res
	if res.NonPreemptive != nil {
		assign := make([]int64, len(res.NonPreemptive.Assign))
		for i, m := range res.NonPreemptive.Assign {
			assign[perm[i]] = m
		}
		out.NonPreemptive = &ccsched.NonPreemptiveSchedule{Assign: assign}
	}
	if res.Split != nil {
		pieces := make([]ccsched.SplitPiece, len(res.Split.Pieces))
		for i, pc := range res.Split.Pieces {
			pc.Job = perm[pc.Job]
			pieces[i] = pc
		}
		out.Split = &ccsched.SplitSchedule{Pieces: pieces}
	}
	if res.CompactSplit != nil {
		groups := make([]ccsched.MachineGroup, len(res.CompactSplit.Groups))
		for i, g := range res.CompactSplit.Groups {
			gp := make([]ccsched.GroupPiece, len(g.Pieces))
			for k, pc := range g.Pieces {
				pc.Job = perm[pc.Job]
				gp[k] = pc
			}
			groups[i] = ccsched.MachineGroup{Count: g.Count, Pieces: gp}
		}
		out.CompactSplit = &ccsched.CompactSplitSchedule{Groups: groups}
	}
	if res.Preemptive != nil {
		pieces := make([]ccsched.PreemptivePiece, len(res.Preemptive.Pieces))
		for i, pc := range res.Preemptive.Pieces {
			pc.Job = perm[pc.Job]
			pieces[i] = pc
		}
		out.Preemptive = &ccsched.PreemptiveSchedule{Pieces: pieces}
	}
	return &out
}
