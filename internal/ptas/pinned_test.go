package ptas

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"testing"

	"ccsched/internal/core"
	"ccsched/internal/generator"
	"ccsched/internal/nfold"
)

// TestSchemeConstructionPinned pins what each scheme builds at every guess
// of its grid, independent of the search: the configuration N-fold (blocks,
// right-hand sides, bounds, objective), which bricks share an A block and
// which share a B block (across the probes of one template too, because the
// engine's aggregation and move cache key on the block pointer), the probe
// digest (the feasibility-cache key that snapshots persist), and the schedule
// constructSchedule realizes from every feasible N-fold solution. A change
// to the construction code that moves any of these fails here; the failure
// prints the new row.

// pinnedConstruction is the pinned pair per case: a hash of every probe's
// N-fold, block partition and digest, and a hash of every accepted probe's
// schedule JSON. grid and accepted count the probes behind them.
type pinnedConstruction struct {
	grid, accepted int
	probes, scheds string
}

// pinnedConstructionWant was recorded before the schemes shared one
// configuration-ILP skeleton (configilp.go) and must not move with
// refactors of the construction. The fewlarge/preemptive/eps=0.5 schedule
// hash is the one the preemptive construction gives when it un-groups a
// class's jobs in ascending size order; before it did so it walked a map,
// and that row's hash changed from run to run.
var pinnedConstructionWant = map[string]pinnedConstruction{
	"fewlarge/nonpreemptive/eps=0.5":    {3, 1, "b7249ea95df57620", "47c8470a0c441dff"},
	"fewlarge/nonpreemptive/eps=1":      {2, 0, "6d8a7745a0ed95ae", "e3b0c44298fc1c14"},
	"fewlarge/preemptive/eps=0.5":       {2, 2, "554e613192a987dd", "e67feed2420d5707"},
	"fewlarge/preemptive/eps=1":         {2, 0, "ecbf99bfece424c0", "e3b0c44298fc1c14"},
	"fewlarge/splittable/eps=0.5":       {2, 2, "edd764aae89bc2b5", "01ad8558e325d510"},
	"fewlarge/splittable/eps=1":         {2, 2, "22f7b51d67e56ff7", "1098e5d5e0f59250"},
	"huge/splittable/eps=0.5":           {1, 1, "c453de7d82467f8a", "c0852ce5fecd19d3"},
	"thirds/nonpreemptive/eps=0.5":      {3, 3, "0fb575c4a19b35fd", "e9e1139904dcedf8"},
	"thirds/nonpreemptive/eps=1":        {2, 2, "bdf455f2a1838e82", "1799388f95b51890"},
	"thirds/preemptive/eps=0.5":         {2, 0, "652165ce2a86d155", "e3b0c44298fc1c14"},
	"thirds/preemptive/eps=1":           {2, 2, "be3fcf666b117424", "c3620be5e4c846a1"},
	"thirds/splittable/eps=0.5":         {2, 2, "01353d3597bbec04", "d731b03c29b94dc2"},
	"thirds/splittable/eps=1":           {2, 2, "a517fda00efe5a20", "549dc48b852c0c57"},
	"tightslots/nonpreemptive/eps=0.5":  {1, 0, "16c5943082aa9b16", "e3b0c44298fc1c14"},
	"tightslots/nonpreemptive/eps=1":    {1, 1, "b65f46b0b6b4480a", "99b5478ed74ccda1"},
	"tightslots/preemptive/eps=0.5":     {1, 0, "f0cecada240e83f1", "e3b0c44298fc1c14"},
	"tightslots/preemptive/eps=1":       {1, 0, "7b9604dfac3fe1ef", "e3b0c44298fc1c14"},
	"tightslots/splittable/eps=0.5":     {1, 0, "60bc40e62f1ebc0b", "e3b0c44298fc1c14"},
	"tightslots/splittable/eps=1":       {1, 1, "26e5f27d6b47fd12", "28e4a24e14b69ad6"},
	"uniform/nonpreemptive/eps=0.5":     {1, 1, "d92334f21c40d84d", "cb707aab783314fe"},
	"uniform/nonpreemptive/eps=1":       {1, 0, "acdcc7e3883bfdce", "e3b0c44298fc1c14"},
	"uniform/preemptive/eps=0.5":        {1, 0, "7bce6391945de63c", "e3b0c44298fc1c14"},
	"uniform/preemptive/eps=1":          {1, 1, "6528434c57b85aa3", "4cb98183aed9ee58"},
	"uniform/splittable/eps=0.5":        {2, 1, "70484e99200b53ad", "ef0489ad07e842e2"},
	"uniform/splittable/eps=1":          {2, 1, "cdbfc90c497b293b", "87aef68bddd47336"},
	"unitclasses/nonpreemptive/eps=0.5": {2, 2, "07d9e120cd025dd9", "a8a8c8fac6d2e9d3"},
	"unitclasses/nonpreemptive/eps=1":   {2, 2, "9f1a07bcef1d56a1", "04d971896f9c5cd6"},
	"unitclasses/preemptive/eps=0.5":    {2, 1, "7c17f6f8ba3c5350", "4c06cd60586be1a8"},
	"unitclasses/preemptive/eps=1":      {2, 2, "ccff66eaabcbdef5", "0f4f0da9338e1664"},
	"unitclasses/splittable/eps=0.5":    {2, 2, "e9ca4a5b4c2352bc", "28a46c32d85500e6"},
	"unitclasses/splittable/eps=1":      {2, 2, "7beee8c671cebbfd", "982a05f8f2fee814"},
	"zipf/nonpreemptive/eps=0.5":        {1, 0, "0a4a78a752af2fcf", "e3b0c44298fc1c14"},
	"zipf/nonpreemptive/eps=1":          {1, 1, "f8621529e2960a18", "908fc52262e0277e"},
	"zipf/preemptive/eps=0.5":           {1, 0, "e7017bd6c6cc09c9", "e3b0c44298fc1c14"},
	"zipf/preemptive/eps=1":             {1, 1, "40279e91effdf5c9", "6ebbf8706a0c6e07"},
	"zipf/splittable/eps=0.5":           {2, 2, "bd557d505cddfa9a", "f25eb5a914a774c5"},
	"zipf/splittable/eps=1":             {2, 2, "c5cd7490dfc367cb", "200dc24d4d7c0c70"},
}

// constructionHasher accumulates one case's hashes. Block identities are
// numbered by first appearance across the whole case, so sharing between
// the probes of one template is pinned as well as sharing within a probe.
type constructionHasher struct {
	probes, scheds hash.Hash
	aID, bID       map[*[]int64]int64
}

func newConstructionHasher() *constructionHasher {
	return &constructionHasher{
		probes: sha256.New(), scheds: sha256.New(),
		aID: make(map[*[]int64]int64), bID: make(map[*[]int64]int64),
	}
}

func putInts(h hash.Hash, vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
}

func putRow(h hash.Hash, row []int64) {
	putInts(h, int64(len(row)))
	putInts(h, row...)
}

func putBlock(h hash.Hash, blk [][]int64) {
	putInts(h, int64(len(blk)))
	for _, row := range blk {
		putRow(h, row)
	}
}

// blockID numbers a block by the address of its first row header.
func blockID(ids map[*[]int64]int64, blk [][]int64) int64 {
	k := &blk[0]
	id, ok := ids[k]
	if !ok {
		id = int64(len(ids))
		ids[k] = id
	}
	return id
}

func (ch *constructionHasher) problem(p *nfold.Problem) {
	h := ch.probes
	putInts(h, int64(p.N), int64(p.R), int64(p.S), int64(p.T))
	putRow(h, p.GlobalRHS)
	for i := 0; i < p.N; i++ {
		putBlock(h, p.A[i])
		putBlock(h, p.B[i])
		putRow(h, p.LocalRHS[i])
		putRow(h, p.Lower[i])
		putRow(h, p.Upper[i])
		putRow(h, p.Obj[i])
		putInts(h, blockID(ch.aID, p.A[i]), blockID(ch.bID, p.B[i]))
	}
}

// pinConstruction walks sc's whole guess grid the way runScheme prepares
// it (scaling, bound, grid) and hashes every probe. Feasible probes are
// solved with the probe's engine options and their schedule hashed.
func pinConstruction[G guess[S], S any](t *testing.T, in *core.Instance, opts Options, sc scheme[G, S]) pinnedConstruction {
	t.Helper()
	g, err := opts.delta()
	if err != nil {
		t.Fatal(err)
	}
	ix, bound, err := certifiedBound(in, sc.variant)
	if err != nil {
		t.Fatal(err)
	}
	if sc.descale != nil {
		if scale := scaleFactor(bound.Rat(), in.PMax(), 4*g*g); scale > 1 {
			ix = ix.Scaled(scale)
			bound = bound.MulInt(scale)
		}
	}
	lo := max(1, bound.Ceil())
	apx, err := sc.approx(ix, bound)
	if err != nil {
		t.Fatal(err)
	}
	grid := guessGrid(lo, max(apx.makespan.Ceil(), lo), g)
	tm, err := sc.template(context.Background(), ix, g, opts)
	if err != nil {
		t.Fatal(err)
	}
	ch := newConstructionHasher()
	out := pinnedConstruction{grid: len(grid)}
	for _, guess := range grid {
		putInts(ch.probes, guess)
		gc, err := tm.instantiate(context.Background(), guess)
		if err != nil {
			fmt.Fprintf(ch.probes, "instantiate: %v", err)
			continue
		}
		d := gc.digest()
		ch.probes.Write(d[:])
		prob, err := gc.buildNFold(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		ch.problem(prob)
		res, err := nfold.SolveCtx(context.Background(), prob, opts.nfoldOptions(tm.engines()))
		if err != nil {
			t.Fatalf("guess %d: %v", guess, err)
		}
		if res.Status != nfold.Feasible {
			continue
		}
		out.accepted++
		putInts(ch.scheds, guess)
		sched, err := gc.constructSchedule(res.X)
		if err != nil {
			fmt.Fprintf(ch.scheds, "construct: %v", err)
			continue
		}
		// A splittable construction sums its makespan as it fills the
		// machines; it must be the schedule's.
		if r, ok := any(sched).(*SplitResult); ok && !r.makespan.Equal(r.Compact.MakespanR()) {
			t.Errorf("guess %d: construction makespan %s, schedule %s", guess, r.makespan.RatString(), r.Compact.MakespanR().RatString())
		}
		js, err := json.Marshal(sched)
		if err != nil {
			t.Fatal(err)
		}
		ch.scheds.Write(js)
	}
	out.probes = hex.EncodeToString(ch.probes.Sum(nil))[:16]
	out.scheds = hex.EncodeToString(ch.scheds.Sum(nil))[:16]
	return out
}

func TestSchemeConstructionPinned(t *testing.T) {
	type variantCase struct {
		name string
		pin  func(t *testing.T, in *core.Instance, opts Options) pinnedConstruction
	}
	variants := []variantCase{
		{"splittable", func(t *testing.T, in *core.Instance, o Options) pinnedConstruction {
			return pinConstruction(t, in, o, splitScheme)
		}},
		{"nonpreemptive", func(t *testing.T, in *core.Instance, o Options) pinnedConstruction {
			return pinConstruction(t, in, o, npScheme)
		}},
		{"preemptive", func(t *testing.T, in *core.Instance, o Options) pinnedConstruction {
			return pinConstruction(t, in, o, preScheme)
		}},
	}
	check := func(t *testing.T, name string, got pinnedConstruction) {
		t.Helper()
		want, ok := pinnedConstructionWant[name]
		if !ok || got != want {
			t.Errorf("%s: got %+v, recorded %+v; new row:\n\t%q: {%d, %d, %q, %q},",
				name, got, want, name, got.grid, got.accepted, got.probes, got.scheds)
		}
	}
	for _, fam := range generator.Families() {
		in := fam.Gen(generator.Config{N: 8, Classes: 4, Machines: 4, Slots: 2, PMax: 80, Seed: 2})
		for _, v := range variants {
			for _, eps := range []float64{1, 0.5} {
				name := fmt.Sprintf("%s/%s/eps=%g", fam.Name, v.name, eps)
				v, in, eps := v, in, eps
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					check(t, name, v.pin(t, in, Options{Epsilon: eps, MaxNodes: 10}))
				})
			}
		}
	}
	t.Run("huge/splittable/eps=0.5", func(t *testing.T) {
		t.Parallel()
		in := &core.Instance{
			P:     []int64{900, 850, 400, 120, 60, 30},
			Class: []int{0, 1, 1, 2, 3, 3},
			M:     1 << 40,
			Slots: 1,
		}
		check(t, "huge/splittable/eps=0.5", pinConstruction(t, in, Options{Epsilon: 0.5, MaxNodes: 10}, hugeScheme))
	})
}
