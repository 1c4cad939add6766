package core

import (
	"cmp"
	"slices"
)

// ClassIndex is the per-class view of an instance that one solve's bounds,
// constant-factor plan, PTAS template and schedule construction all read,
// built once with a counting sort instead of once per reader.
type ClassIndex struct {
	// In is the indexed instance; it must not change while the index is
	// in use.
	In *Instance
	// Variant is the variant the index was built for: its LowerBound, and
	// whether it holds ByP.
	Variant Variant
	// Jobs lists every class's jobs in index order. The lists share one
	// backing array and each is capacity-capped, so appending to one copies
	// it instead of overwriting the next.
	Jobs [][]int
	// Loads holds every class's load P_u.
	Loads []int64
	// NonEmpty is C′, the number of classes with at least one job.
	NonEmpty int
	// PMax is the largest processing time and Total their sum.
	PMax, Total int64
	// ByP lists every class's jobs stably sorted by non-increasing
	// processing time, and PByP those processing times in that order. Only
	// a non-preemptive index holds them: the 7/3 plan's LPT and the
	// non-preemptive slot bound read them.
	ByP  [][]int
	PByP [][]int64
}

// NewClassIndex indexes in for a solve of variant v.
func NewClassIndex(in *Instance, v Variant) *ClassIndex {
	ix := &ClassIndex{In: in, Variant: v}
	cc := in.NumClasses()
	ix.Loads = make([]int64, cc)
	// start[u] is where class u's jobs begin in the backing array.
	start := make([]int, cc+1)
	for j, p := range in.P {
		c := in.Class[j]
		start[c+1]++
		ix.Loads[c] += p
		ix.Total += p
		ix.PMax = max(ix.PMax, p)
	}
	for u := 0; u < cc; u++ {
		if start[u+1] > 0 {
			ix.NonEmpty++
		}
		start[u+1] += start[u]
	}
	ix.Jobs = splitBacking(make([]int, in.N()), start)
	fill := make([]int, cc)
	for j := range in.P {
		c := in.Class[j]
		ix.Jobs[c][fill[c]] = j
		fill[c]++
	}
	if v == NonPreemptive {
		ix.ByP = splitBacking(make([]int, in.N()), start)
		ix.PByP = splitBacking(make([]int64, in.N()), start)
		for u, jobs := range ix.Jobs {
			sortByP(in, jobs, ix.ByP[u], ix.PByP[u])
		}
	}
	return ix
}

// sortByP writes jobs, given in index order, into byP largest first with
// ties in index order, the order a stable sort gives, and their processing
// times into ps. Short lists, the common case, are insertion sorted on ps
// directly.
func sortByP(in *Instance, jobs, byP []int, ps []int64) {
	copy(byP, jobs)
	if len(jobs) > 16 {
		slices.SortFunc(byP, func(a, b int) int {
			if c := cmp.Compare(in.P[b], in.P[a]); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
		for i, j := range byP {
			ps[i] = in.P[j]
		}
		return
	}
	for i, j := range byP {
		p := in.P[j]
		k := i
		for ; k > 0 && ps[k-1] < p; k-- {
			ps[k], byP[k] = ps[k-1], byP[k-1]
		}
		ps[k], byP[k] = p, j
	}
}

// splitBacking cuts backing into the capacity-capped runs
// [start[u], start[u+1]).
func splitBacking[E any](backing []E, start []int) [][]E {
	out := make([][]E, len(start)-1)
	for u := range out {
		out[u] = backing[start[u]:start[u+1]:start[u+1]]
	}
	return out
}

// NumClasses returns C, one plus the largest class index present.
func (ix *ClassIndex) NumClasses() int { return len(ix.Loads) }

// Scaled returns the index of a copy of the instance with every processing
// time multiplied by s. The job→class structure, and so every job order,
// is the original's and is shared with it.
func (ix *ClassIndex) Scaled(s int64) *ClassIndex {
	in := ix.In.Clone()
	for j := range in.P {
		in.P[j] *= s
	}
	out := *ix
	out.In = in
	out.PMax, out.Total = ix.PMax*s, ix.Total*s
	out.Loads = make([]int64, len(ix.Loads))
	for u, pu := range ix.Loads {
		out.Loads[u] = pu * s
	}
	if ix.PByP != nil {
		out.PByP = make([][]int64, len(ix.PByP))
		for u, ps := range ix.PByP {
			out.PByP[u] = make([]int64, len(ps))
			for i, p := range ps {
				out.PByP[u][i] = p * s
			}
		}
	}
	return &out
}
