package ptas

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"ccsched/internal/nfold"
)

// The configuration ILP every scheme solves per guess (Sections 4.1–4.3),
// and the scheme-independent half of realizing its solutions. Brick u
// belongs to class u; its columns are
//
//	[x^u_K | y^u | z^u_hb | s2^u_hb | s3^u_hb | scheme columns]
//
// with one x per configuration K, one y per module, and per (h,b) group —
// the configurations with height Λ(K)=h and ‖K‖₁=b slots — the small-class
// indicator z and the slacks of rows (2) and (3). The A block holds
//
//	(0)  Σ_K x_K = m
//	(1)  per module kind q: Σ_K K_q x_K − Σ_{y of kind q} y = 0
//	(2)  per (h,b): Σ_{K∈(h,b)} (b−c) x_K + z + s2 = 0
//	(3)  per (h,b): Σ_{K∈(h,b)} (h−T̄) x_K + p'_u z + s3 = 0
//
// and the B block the scheme's local rows followed by Σ z = ξ_u. The (3)-row
// z coefficient p'_u is the rounded load of a small class; large classes,
// whose z is fixed to 0, carry 1 there. A scheme contributes its
// configuration enumeration, the kind of each module column, its local rows
// and extra columns, its large-class bounds and its job placement.

// configSet is a scheme's configuration enumeration as the skeleton reads
// it.
type configSet interface {
	len() int
	// hb returns Λ(K) and ‖K‖₁, the (h,b) group of configuration ci.
	hb(ci int) (h, b int64)
	// slots calls f(kind, n) for each module kind configuration ci holds
	// n > 0 slots of.
	slots(ci int, f func(kind int, n int64))
}

// multisets are configurations that are multisets over the module kinds
// (enumerateConfigs); Λ(K) is their size in δ²T/c units.
type multisets []configK

func (ks multisets) len() int                 { return len(ks) }
func (ks multisets) hb(ci int) (int64, int64) { return ks[ci].size, ks[ci].slots }
func (ks multisets) slots(ci int, f func(int, int64)) {
	for k, n := range ks[ci].counts {
		if n != 0 {
			f(k, n)
		}
	}
}

// hbPair is one (h,b) machine group.
type hbPair struct {
	h, b    int64
	configs []int // configurations with Λ(K)=h, ‖K‖₁=b
}

// configILP is the guess-independent shape of one configuration N-fold:
// the configurations grouped by (h,b) and the module columns by kind. It is
// immutable after construction.
type configILP struct {
	configs configSet
	hbPairs []hbPair // in order of first appearance
	hbOf    []int    // configuration → its hbPairs index
	kinds   int      // module kinds: rows (1)
	yKind   []int    // module column → its kind
	cUnits  int64    // the slot budget c
	tBar    int64    // T̄ in δ²T/c units
}

func newConfigILP(configs configSet, kinds int, yKind []int, cUnits, tBar int64) *configILP {
	ilp := &configILP{configs: configs, kinds: kinds, yKind: yKind, cUnits: cUnits, tBar: tBar}
	nK := configs.len()
	ilp.hbOf = make([]int, nK)
	index := make(map[[2]int64]int)
	for ci := 0; ci < nK; ci++ {
		h, b := configs.hb(ci)
		hi, ok := index[[2]int64{h, b}]
		if !ok {
			hi = len(ilp.hbPairs)
			index[[2]int64{h, b}] = hi
			ilp.hbPairs = append(ilp.hbPairs, hbPair{h: h, b: b})
		}
		ilp.hbPairs[hi].configs = append(ilp.hbPairs[hi].configs, ci)
		ilp.hbOf[ci] = hi
	}
	return ilp
}

// sameKinds is the module-kind map of a scheme whose every module is its
// own kind.
func sameKinds(n int) []int {
	ks := make([]int, n)
	for k := range ks {
		ks[k] = k
	}
	return ks
}

// Column offsets within a brick; x starts at 0.
func (ilp *configILP) yOff() int     { return ilp.configs.len() }
func (ilp *configILP) zOff() int     { return ilp.yOff() + len(ilp.yKind) }
func (ilp *configILP) s2Off() int    { return ilp.zOff() + len(ilp.hbPairs) }
func (ilp *configILP) s3Off() int    { return ilp.s2Off() + len(ilp.hbPairs) }
func (ilp *configILP) extraOff() int { return ilp.s3Off() + len(ilp.hbPairs) }

// configBlocks are the shared immutable blocks of one N-fold shape. Every
// large-class brick aliases largeA and every brick sharedB; zeroRow serves
// as lower bounds and objective, smallLRHS as every small brick's local
// right-hand side. A small-class A block is largeA with the (3)-row z
// coefficients replaced by the class's rounded load; smallA caches one per
// load, aliasing the unpatched rows. Which bricks share a block is
// observable — the engine's aggregation and move cache key on the block
// pointer — so a scheme keeps one configBlocks for as long as its values
// hold.
type configBlocks struct {
	*configILP
	width, local int
	largeA       [][]int64
	sharedB      [][]int64
	zeroRow      []int64
	smallLRHS    []int64
	smallA       map[int64][][]int64 // by rounded small-class load
}

// blocks builds the shared blocks for nExtra scheme columns and local
// scheme rows, which fill writes into the first local rows of B. It polls
// ctx once per row of A, each as wide as the brick, and every pollEvery
// configurations.
func (ilp *configILP) blocks(ctx context.Context, nExtra, local int, fill func(b [][]int64)) (*configBlocks, error) {
	nK, nHB := ilp.configs.len(), len(ilp.hbPairs)
	bl := &configBlocks{configILP: ilp, width: ilp.extraOff() + nExtra, local: local, smallA: make(map[int64][][]int64)}
	a := make([][]int64, 1+ilp.kinds+2*nHB)
	for k := range a {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		a[k] = make([]int64, bl.width)
	}
	steps := 0
	for ci := 0; ci < nK; ci++ {
		if err := poll(ctx, &steps); err != nil {
			return nil, err
		}
		a[0][ci] = 1
		ilp.configs.slots(ci, func(k int, n int64) { a[1+k][ci] = n })
	}
	for y, k := range ilp.yKind {
		a[1+k][nK+y] = -1
	}
	zOff, s2Off, s3Off := ilp.zOff(), ilp.s2Off(), ilp.s3Off()
	for hi, hb := range ilp.hbPairs {
		row2 := a[1+ilp.kinds+hi]
		row3 := a[1+ilp.kinds+nHB+hi]
		row2[zOff+hi] = 1
		row2[s2Off+hi] = 1
		row3[s3Off+hi] = 1
		row3[zOff+hi] = 1
		for _, ci := range hb.configs {
			row2[ci] = hb.b - ilp.cUnits
			row3[ci] = hb.h - ilp.tBar
		}
	}
	bl.largeA = a
	bl.sharedB = make([][]int64, local+1)
	for k := range bl.sharedB {
		bl.sharedB[k] = make([]int64, bl.width)
	}
	fill(bl.sharedB[:local])
	for hi := range ilp.hbPairs {
		bl.sharedB[local][zOff+hi] = 1
	}
	bl.zeroRow = make([]int64, bl.width)
	bl.smallLRHS = make([]int64, local+1)
	bl.smallLRHS[local] = 1
	return bl, nil
}

// smallABlock returns the A block of a small class with rounded load units.
func (bl *configBlocks) smallABlock(units int64) [][]int64 {
	if a, ok := bl.smallA[units]; ok {
		return a
	}
	nHB, zOff := len(bl.hbPairs), bl.zOff()
	a := make([][]int64, len(bl.largeA))
	copy(a, bl.largeA)
	for hi := 0; hi < nHB; hi++ {
		ri := 1 + bl.kinds + nHB + hi
		row := append([]int64(nil), bl.largeA[ri]...)
		row[zOff+hi] = units
		a[ri] = row
	}
	bl.smallA[units] = a
	return a
}

// build assembles the N-fold on m machines with one brick per class, in
// order. A small class u gets the shared small-class blocks for its rounded
// load units[u]. A large class gets largeA, the local right-hand side and
// module-column bound that large returns, and whatever bounds large writes
// into its brick's upper bounds for the scheme's own columns. Slack bounds
// cover (c−b)·Σx and (T̄−h)·Σx with every x up to m. It polls ctx once
// per brick.
func (bl *configBlocks) build(ctx context.Context, m int64, classes []int, small []bool, units []int64, large func(u int, upper []int64) (lrhs []int64, yMax int64)) (*nfold.Problem, error) {
	r := len(bl.largeA)
	p := &nfold.Problem{N: len(classes), R: r, S: bl.local + 1, T: bl.width}
	nK, yOff, zOff, s2Off, s3Off := bl.configs.len(), bl.yOff(), bl.zOff(), bl.s2Off(), bl.s3Off()
	for _, u := range classes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		upper := make([]int64, bl.width)
		for ci := 0; ci < nK; ci++ {
			upper[ci] = m
		}
		for hi := range bl.hbPairs {
			upper[s2Off+hi] = bl.cUnits * m
			upper[s3Off+hi] = bl.tBar * m
		}
		if small[u] {
			for hi := range bl.hbPairs {
				upper[zOff+hi] = 1
			}
			p.A = append(p.A, bl.smallABlock(units[u]))
			p.LocalRHS = append(p.LocalRHS, bl.smallLRHS)
		} else {
			lrhs, yMax := large(u, upper)
			for y := yOff; y < zOff; y++ {
				upper[y] = yMax
			}
			p.A = append(p.A, bl.largeA)
			p.LocalRHS = append(p.LocalRHS, lrhs)
		}
		p.B = append(p.B, bl.sharedB)
		p.Lower = append(p.Lower, bl.zeroRow)
		p.Upper = append(p.Upper, upper)
		p.Obj = append(p.Obj, bl.zeroRow)
	}
	p.GlobalRHS = make([]int64, r)
	p.GlobalRHS[0] = m
	return p, nil
}

// pollEvery is how many steps of a construction loop pass between two
// polls of the solve's context.
const pollEvery = 1024

// poll counts one step of a construction loop and, every pollEvery steps,
// returns the context's error.
func poll(ctx context.Context, steps *int) error {
	if *steps++; *steps%pollEvery == 0 {
		return ctx.Err()
	}
	return nil
}

// machineConfigs expands a solution's configuration counts Σ_u x^u_K into
// the configuration of each of the m machines, configurations in order.
func (ilp *configILP) machineConfigs(x [][]int64, m int64) ([]int, error) {
	xc := make([]int64, ilp.configs.len())
	var total int64
	for _, xb := range x {
		for ci := range xc {
			xc[ci] += xb[ci]
			total += xb[ci]
		}
	}
	if total != m {
		return nil, fmt.Errorf("ptas: configuration counts cover %d machines, want %d", total, m)
	}
	machines := make([]int, 0, m)
	for ci, cnt := range xc {
		for k := int64(0); k < cnt; k++ {
			machines = append(machines, ci)
		}
	}
	return machines, nil
}

// slotPool hands out the module slots of the expanded machines, each kind's
// slots in machine order.
type slotPool struct {
	at   []int // the machine of every slot, kind by kind
	next []int // kind → its next free slot in at
	end  []int // kind → the end of its slots in at
}

func (ilp *configILP) moduleSlots(machines []int) *slotPool {
	sp := &slotPool{next: make([]int, ilp.kinds), end: make([]int, ilp.kinds)}
	for _, ci := range machines {
		ilp.configs.slots(ci, func(k int, n int64) { sp.end[k] += int(n) })
	}
	total := 0
	for k, n := range sp.end {
		sp.next[k] = total
		total += n
		sp.end[k] = total
	}
	sp.at = make([]int, total)
	fill := slices.Clone(sp.next)
	for mi, ci := range machines {
		ilp.configs.slots(ci, func(k int, n int64) {
			for ; n > 0; n-- {
				sp.at[fill[k]] = mi
				fill[k]++
			}
		})
	}
	return sp
}

// take returns the machine of the next free slot of the given kind.
func (sp *slotPool) take(kind int) (int, error) {
	if sp.next[kind] >= sp.end[kind] {
		return 0, fmt.Errorf("ptas: module demand exceeds the slots of kind %d", kind)
	}
	mi := sp.at[sp.next[kind]]
	sp.next[kind]++
	return mi, nil
}

// dealSmall places the small classes round robin within the (h,b) machine
// group their z chose, in non-ascending load order (Lemma 3). machines is
// machineConfigs' expansion; place puts all of class u on machine mi.
func (ilp *configILP) dealSmall(x [][]int64, classes []int, small []bool, loads []int64, machines []int, place func(u, mi int)) error {
	nHB, zOff := len(ilp.hbPairs), ilp.zOff()
	// The machines of every (h,b) group in order, one group after the
	// other: group hi's are order[start[hi]:start[hi+1]].
	start := make([]int, nHB+1)
	for _, ci := range machines {
		start[ilp.hbOf[ci]+1]++
	}
	for hi := 0; hi < nHB; hi++ {
		start[hi+1] += start[hi]
	}
	order := make([]int, len(machines))
	fill := slices.Clone(start[:nHB])
	for mi, ci := range machines {
		hi := ilp.hbOf[ci]
		order[fill[hi]] = mi
		fill[hi]++
	}
	type smallAssign struct{ u, hb int }
	smalls := make([]smallAssign, 0, len(classes))
	for bi, u := range classes {
		if !small[u] {
			continue
		}
		chosen := -1
		for hi := 0; hi < nHB; hi++ {
			if x[bi][zOff+hi] == 1 {
				chosen = hi
				break
			}
		}
		if chosen < 0 {
			return fmt.Errorf("ptas: small class %d has no (h,b) assignment", u)
		}
		smalls = append(smalls, smallAssign{u, chosen})
	}
	// Non-ascending load, ties in brick order (ascending class).
	slices.SortFunc(smalls, func(a, b smallAssign) int {
		if c := cmp.Compare(loads[b.u], loads[a.u]); c != 0 {
			return c
		}
		return cmp.Compare(a.u, b.u)
	})
	next := make([]int, nHB)
	for _, sa := range smalls {
		ms := order[start[sa.hb]:start[sa.hb+1]]
		if len(ms) == 0 {
			return fmt.Errorf("ptas: small class %d assigned to empty machine group", sa.u)
		}
		place(sa.u, ms[next[sa.hb]%len(ms)])
		next[sa.hb]++
	}
	return nil
}
