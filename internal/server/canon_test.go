package server

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ccsched"
)

// scrambled returns a copy of in with jobs shuffled and class labels
// permuted — the symmetries canonicalization must factor out.
func scrambled(in *ccsched.Instance, seed int64) *ccsched.Instance {
	rng := rand.New(rand.NewSource(seed))
	n := in.N()
	order := rng.Perm(n)
	C := in.NumClasses()
	relabel := rng.Perm(C)
	out := &ccsched.Instance{P: make([]int64, n), Class: make([]int, n), M: in.M, Slots: in.Slots}
	for i, j := range order {
		out.P[i] = in.P[j]
		out.Class[i] = relabel[in.Class[j]]
	}
	return out
}

// genInstance builds a deterministic test instance from a workload family.
func genInstance(t *testing.T, family string, n, classes int, m int64, slots int, seed int64) *ccsched.Instance {
	t.Helper()
	in, err := ccsched.Generate(family, ccsched.GeneratorConfig{
		N: n, Classes: classes, Machines: m, Slots: slots, PMax: 50, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestCanonicalizeInvariance checks that job shuffles and class relabelings
// produce the identical canonical instance and request key, across workload
// families.
func TestCanonicalizeInvariance(t *testing.T) {
	opts := ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox}
	for _, family := range ccsched.GeneratorFamilies() {
		in := genInstance(t, family, 40, 8, 5, 2, 7)
		base := canonicalize(in)
		baseKey := requestKey(base.in, opts)
		if err := base.in.Validate(); err != nil {
			t.Fatalf("%s: canonical instance invalid: %v", family, err)
		}
		for seed := int64(1); seed <= 5; seed++ {
			alt := canonicalize(scrambled(in, seed))
			if !reflect.DeepEqual(base.in, alt.in) {
				t.Fatalf("%s seed %d: canonical forms differ:\n%+v\n%+v", family, seed, base.in, alt.in)
			}
			if requestKey(alt.in, opts) != baseKey {
				t.Fatalf("%s seed %d: request keys differ", family, seed)
			}
		}
	}
}

// TestCanonicalizePermIsValid checks the permutation really links canonical
// to original jobs.
func TestCanonicalizePermIsValid(t *testing.T) {
	in := genInstance(t, "zipf", 30, 6, 4, 2, 3)
	c := canonicalize(in)
	seen := make([]bool, in.N())
	for i, j := range c.perm {
		if seen[j] {
			t.Fatalf("perm maps two canonical jobs to original %d", j)
		}
		seen[j] = true
		if c.in.P[i] != in.P[j] {
			t.Fatalf("canonical job %d has p=%d, original %d has p=%d", i, c.in.P[i], j, in.P[j])
		}
	}
}

// canonicalizeOracle is the straightforward canonicalization — a map of
// per-class job lists, one sort per class, then a sort of the classes — kept
// as the reference the single-sort canonicalize must reproduce exactly.
func canonicalizeOracle(in *ccsched.Instance) canonical {
	byClass := make(map[int][]int)
	for j, c := range in.Class {
		byClass[c] = append(byClass[c], j)
	}
	classes := make([]int, 0, len(byClass))
	for c, jobs := range byClass {
		sort.Slice(jobs, func(a, b int) bool {
			if in.P[jobs[a]] != in.P[jobs[b]] {
				return in.P[jobs[a]] < in.P[jobs[b]]
			}
			return jobs[a] < jobs[b]
		})
		classes = append(classes, c)
	}
	sort.Slice(classes, func(a, b int) bool {
		ja, jb := byClass[classes[a]], byClass[classes[b]]
		for k := 0; k < len(ja) && k < len(jb); k++ {
			if pa, pb := in.P[ja[k]], in.P[jb[k]]; pa != pb {
				return pa < pb
			}
		}
		if len(ja) != len(jb) {
			return len(ja) < len(jb)
		}
		return classes[a] < classes[b]
	})
	n := in.N()
	out := &ccsched.Instance{P: make([]int64, 0, n), Class: make([]int, 0, n), M: in.M, Slots: in.Slots}
	perm := make([]int, 0, n)
	for rank, c := range classes {
		for _, j := range byClass[c] {
			out.P = append(out.P, in.P[j])
			out.Class = append(out.Class, rank)
			perm = append(perm, j)
		}
	}
	if cc := len(classes); out.Slots > cc && cc > 0 {
		out.Slots = cc
	}
	if out.Slots > n && n > 0 {
		out.Slots = n
	}
	return canonical{in: out, perm: perm}
}

// TestCanonicalizeMatchesOracle checks canonicalize returns the oracle's
// canonical instance and permutation — tie-breaks included — on instances
// built to stress them: interchangeable classes (identical processing-time
// lists under different labels), prefix-related lists, sparse huge labels,
// labels on both sides of the counting sort's density bound, runs longer
// than 16 jobs, a single job, all-equal processing times and generator
// families.
func TestCanonicalizeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	var cases []*ccsched.Instance
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		pmax := []int64{1, 2, 3, 1000}[rng.Intn(4)] // 1: all-equal p
		labels := make([]int, 1+rng.Intn(6))
		for k := range labels {
			switch rng.Intn(3) {
			case 0:
				labels[k] = k
			case 1:
				labels[k] = rng.Intn(1 << 20)
			default:
				labels[k] = 1<<62 + rng.Intn(1<<30) // sparse huge labels
			}
		}
		in := &ccsched.Instance{M: 1 + rng.Int63n(5), Slots: 1 + rng.Intn(4)}
		// Half the trials copy one class's list onto other labels, making
		// interchangeable classes whose order only the tie-break decides.
		var template []int64
		for j := 0; j < n; j++ {
			p := 1 + rng.Int63n(pmax)
			if trial%2 == 1 && len(template) > 0 && rng.Intn(2) == 0 {
				p = template[rng.Intn(len(template))]
			}
			template = append(template, p)
			in.P = append(in.P, p)
			in.Class = append(in.Class, labels[rng.Intn(len(labels))])
		}
		if trial%2 == 1 {
			for _, c := range labels {
				for _, p := range template[:min(3, len(template))] {
					in.P = append(in.P, p)
					in.Class = append(in.Class, c)
				}
			}
		}
		shuffled := &ccsched.Instance{P: slices.Clone(in.P), Class: slices.Clone(in.Class), M: in.M, Slots: in.Slots}
		rng.Shuffle(len(shuffled.P), func(a, b int) {
			shuffled.P[a], shuffled.P[b] = shuffled.P[b], shuffled.P[a]
			shuffled.Class[a], shuffled.Class[b] = shuffled.Class[b], shuffled.Class[a]
		})
		cases = append(cases, in, shuffled)
	}
	cases = append(cases, &ccsched.Instance{P: []int64{7}, Class: []int{1 << 40}, M: 3, Slots: 2})
	// The two sides of the counting sort's density bound (a label at 4n+63
	// is counting-sorted, one at 4n+64 is not), with runs longer than 16
	// jobs and with all-equal processing times.
	for _, pmax := range []int64{1, 3, 1000} {
		for _, top := range []int{63, 64} {
			for _, runLen := range []int{5, 17, 40} {
				n := 3 * runLen
				in := &ccsched.Instance{M: 4, Slots: 2}
				for j := 0; j < n; j++ {
					in.P = append(in.P, 1+rng.Int63n(pmax))
					in.Class = append(in.Class, []int{2, 0, 4*n + top}[rng.Intn(3)])
				}
				in.Class[n/2] = 4*n + top
				cases = append(cases, in)
			}
		}
	}
	for _, family := range ccsched.GeneratorFamilies() {
		cases = append(cases, genInstance(t, family, 200, 20, 10, 3, 5))
	}
	for i, in := range cases {
		got, want := canonicalize(in), canonicalizeOracle(in)
		if !reflect.DeepEqual(got.in, want.in) || !reflect.DeepEqual(got.perm, want.perm) {
			t.Fatalf("case %d %+v:\n got %+v perm %v\nwant %+v perm %v", i, in, got.in, got.perm, want.in, want.perm)
		}
	}
}

// TestRequestKeyOptionSensitivity checks result-affecting options split the
// key space while result-neutral knobs (caching, TierAuto aliasing, the ε
// default) do not.
func TestRequestKeyOptionSensitivity(t *testing.T) {
	in := canonicalize(genInstance(t, "uniform", 20, 4, 3, 2, 1)).in
	base := requestKey(in, ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierPTAS})
	same := []ccsched.Options{
		{Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, NoCache: true},
		{Variant: ccsched.Splittable, Tier: ccsched.TierAuto},
		{Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, Epsilon: 0.5},
	}
	for i, o := range same {
		if requestKey(in, o) != base {
			t.Fatalf("option set %d changed the key but cannot change the result", i)
		}
	}
	diff := []ccsched.Options{
		{Variant: ccsched.Preemptive, Tier: ccsched.TierPTAS},
		{Variant: ccsched.Splittable, Tier: ccsched.TierApprox},
		{Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, Epsilon: 0.25},
		{Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, MaxNodes: 10},
	}
	for i, o := range diff {
		if requestKey(in, o) == base {
			t.Fatalf("option set %d shares the key but can change the result", i)
		}
	}
}

// TestRemapResultValidates solves canonical instances for all three
// variants and checks the remapped schedules validate against the original
// (scrambled) instances they answer for.
func TestRemapResultValidates(t *testing.T) {
	for _, variant := range []ccsched.Variant{ccsched.Splittable, ccsched.Preemptive, ccsched.NonPreemptive} {
		orig := scrambled(genInstance(t, "thirds", 24, 6, 4, 2, 9), 11)
		c := canonicalize(orig)
		res, err := ccsched.Solve(context.Background(), c.in, ccsched.Options{Variant: variant, Tier: ccsched.TierApprox})
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		mapped := remapResult(res, c.perm)
		switch variant {
		case ccsched.Splittable:
			if err := mapped.Split.Validate(orig); err != nil {
				t.Fatalf("%v: remapped explicit schedule invalid: %v", variant, err)
			}
			if err := mapped.CompactSplit.Validate(orig); err != nil {
				t.Fatalf("%v: remapped compact schedule invalid: %v", variant, err)
			}
		case ccsched.Preemptive:
			if err := mapped.Preemptive.Validate(orig); err != nil {
				t.Fatalf("%v: remapped schedule invalid: %v", variant, err)
			}
		case ccsched.NonPreemptive:
			if err := mapped.NonPreemptive.Validate(orig); err != nil {
				t.Fatalf("%v: remapped schedule invalid: %v", variant, err)
			}
		}
		if mapped.Makespan.Cmp(res.Makespan) != 0 {
			t.Fatalf("%v: remap changed the makespan", variant)
		}
	}
}

// requestKeyOracle is requestKey with one 8-byte Write per value, kept as
// the reference for the block-buffered digest.
func requestKeyOracle(canon *ccsched.Instance, opts ccsched.Options) key {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
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
		eps = 0
	} else if eps == 0 {
		eps = 0.5
	}
	put(int64(opts.Variant))
	put(int64(tier))
	put(int64(math.Float64bits(eps)))
	put(int64(opts.MaxNodes))
	put(int64(opts.MaxConfigs))
	put(opts.HugeMThreshold)
	put(opts.ExplicitMachineLimit)
	if opts.Trace {
		put(2)
	}
	if opts.FallbackTier == ccsched.TierApprox {
		put(3)
	}
	var k key
	h.Sum(k[:0])
	return k
}

// TestRequestKeyMatchesOracle checks the block-buffered requestKey gives
// the per-value digest on every generator family, at sizes whose value
// count falls on, just before and just after a block boundary, under
// option sets that write extra values.
func TestRequestKeyMatchesOracle(t *testing.T) {
	optSets := []ccsched.Options{
		{Variant: ccsched.Splittable, Tier: ccsched.TierApprox},
		{Variant: ccsched.Preemptive, Tier: ccsched.TierPTAS, Epsilon: 0.25, MaxNodes: 9, Trace: true},
		{Variant: ccsched.NonPreemptive, Tier: ccsched.TierAuto, HugeMThreshold: 1 << 40, FallbackTier: ccsched.TierApprox},
	}
	for _, family := range ccsched.GeneratorFamilies() {
		// 3 + 2n values: n = 30 and 31 straddle one 64-value block, and
		// n = 2000 is the serve-mix size.
		for _, n := range []int{1, 2, 29, 30, 31, 32, 61, 62, 2000} {
			in := canonicalize(genInstance(t, family, n, max(1, n/10), 4, 2, int64(n))).in
			for i, opts := range optSets {
				if got, want := requestKey(in, opts), requestKeyOracle(in, opts); got != want {
					t.Fatalf("%s n=%d options %d: key %x, oracle %x", family, n, i, got, want)
				}
			}
		}
	}
}
