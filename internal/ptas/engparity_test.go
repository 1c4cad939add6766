package ptas

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"ccsched/internal/core"
	"ccsched/internal/generator"
)

// The serial engines used to have an opt-in parallel twin (EngineParallelism:
// concurrent brick scans, speculative branch-and-bound subtree workers and
// batched sibling LPs), proven bit-identical to them on the matrix below at
// 1, 2 and 8 workers. The twin is gone; this test pins the serial engines to
// the values recorded on that matrix when the two were last compared, so a
// change to the engines that moves any accepted guess, probe count,
// makespan or branch-and-bound node total fails here. Runs use no cache,
// so no run can answer another's probes.

// engParity is the quadruple pinned per solve.
type engParity struct {
	guess    int64
	guesses  int
	makespan string
	nodes    int64
}

// engParityWant holds the recorded values, keyed by subtest name. An engine
// change that moves them on purpose must update this table (the failure
// message prints the new row).
//
// 21 rows were re-pinned when the exact engine began solving each probe
// over brick types (internal/nfold/aggregate.go), and every row was kept.
// The node total fell from 4257 to 3419. Four rows (three preemptive ones
// and uniform/nonpreemptive/seed=5) accept a lower guess, because the
// aggregated model decides a probe that the full model had left Unknown at
// the 150-node cap. The five thirds/nonpreemptive makespans fell by about
// 28% (248 → 176 on seed 5), because the engine returns a different
// feasible point and the scheme builds a better schedule from it. One row,
// uniform/preemptive/seed=2, accepts a higher guess (131 → 185): its
// aggregated probe at 131 spends the whole cap and leaves no nodes for the
// full model. Its makespan is unchanged, and no makespan rose.
var engParityWant = map[string]engParity{
	"uniform/splittable/seed=1":        {237, 1, "352", 8},
	"uniform/nonpreemptive/seed=1":     {352, 2, "352", 171},
	"uniform/preemptive/seed=1":        {237, 1, "352", 1},
	"uniform/splittable/seed=2":        {131, 1, "185", 8},
	"uniform/nonpreemptive/seed=2":     {162, 2, "162", 161},
	"uniform/preemptive/seed=2":        {185, 2, "185", 151},
	"uniform/splittable/seed=3":        {135, 2, "213", 14},
	"uniform/nonpreemptive/seed=3":     {197, 2, "197", 177},
	"uniform/preemptive/seed=3":        {135, 1, "213", 1},
	"uniform/splittable/seed=4":        {198, 1, "802/3", 21},
	"uniform/nonpreemptive/seed=4":     {272, 2, "272", 153},
	"uniform/preemptive/seed=4":        {198, 1, "802/3", 1},
	"uniform/splittable/seed=5":        {201, 1, "250", 1},
	"uniform/nonpreemptive/seed=5":     {201, 1, "249", 1},
	"uniform/preemptive/seed=5":        {250, 2, "250", 151},
	"zipf/splittable/seed=1":           {237, 1, "308", 7},
	"zipf/nonpreemptive/seed=1":        {237, 1, "355", 5},
	"zipf/preemptive/seed=1":           {237, 1, "308", 21},
	"zipf/splittable/seed=2":           {131, 1, "195", 8},
	"zipf/nonpreemptive/seed=2":        {196, 2, "196", 171},
	"zipf/preemptive/seed=2":           {131, 1, "195", 1},
	"zipf/splittable/seed=3":           {172, 2, "515/3", 162},
	"zipf/nonpreemptive/seed=3":        {135, 1, "153", 5},
	"zipf/preemptive/seed=3":           {135, 1, "515/3", 17},
	"zipf/splittable/seed=4":           {198, 1, "826/3", 31},
	"zipf/nonpreemptive/seed=4":        {268, 2, "268", 156},
	"zipf/preemptive/seed=4":           {198, 1, "826/3", 1},
	"zipf/splittable/seed=5":           {201, 1, "862/3", 29},
	"zipf/nonpreemptive/seed=5":        {201, 1, "260", 3},
	"zipf/preemptive/seed=5":           {201, 1, "862/3", 14},
	"fewlarge/splittable/seed=1":       {304, 1, "376", 7},
	"fewlarge/nonpreemptive/seed=1":    {304, 2, "479", 20},
	"fewlarge/preemptive/seed=1":       {304, 1, "376", 21},
	"fewlarge/splittable/seed=2":       {258, 1, "826/3", 7},
	"fewlarge/nonpreemptive/seed=2":    {413, 2, "413", 235},
	"fewlarge/preemptive/seed=2":       {258, 1, "826/3", 7},
	"fewlarge/splittable/seed=3":       {251, 1, "262", 7},
	"fewlarge/nonpreemptive/seed=3":    {251, 1, "376", 20},
	"fewlarge/preemptive/seed=3":       {251, 1, "262", 21},
	"fewlarge/splittable/seed=4":       {194, 2, "581/3", 155},
	"fewlarge/nonpreemptive/seed=4":    {270, 2, "279", 190},
	"fewlarge/preemptive/seed=4":       {194, 2, "581/3", 151},
	"fewlarge/splittable/seed=5":       {225, 1, "245", 37},
	"fewlarge/nonpreemptive/seed=5":    {225, 1, "329", 1},
	"fewlarge/preemptive/seed=5":       {245, 2, "245", 151},
	"unitclasses/splittable/seed=1":    {204, 1, "234", 1},
	"unitclasses/nonpreemptive/seed=1": {204, 1, "234", 1},
	"unitclasses/preemptive/seed=1":    {204, 1, "234", 1},
	"unitclasses/splittable/seed=2":    {164, 1, "195", 1},
	"unitclasses/nonpreemptive/seed=2": {164, 1, "195", 1},
	"unitclasses/preemptive/seed=2":    {164, 1, "195", 1},
	"unitclasses/splittable/seed=3":    {160, 1, "191", 1},
	"unitclasses/nonpreemptive/seed=3": {160, 1, "191", 1},
	"unitclasses/preemptive/seed=3":    {160, 1, "191", 1},
	"unitclasses/splittable/seed=4":    {206, 1, "216", 1},
	"unitclasses/nonpreemptive/seed=4": {206, 1, "216", 1},
	"unitclasses/preemptive/seed=4":    {206, 1, "216", 1},
	"unitclasses/splittable/seed=5":    {168, 1, "194", 1},
	"unitclasses/nonpreemptive/seed=5": {168, 1, "194", 1},
	"unitclasses/preemptive/seed=5":    {168, 1, "194", 1},
	"thirds/splittable/seed=1":         {168, 1, "177", 1},
	"thirds/nonpreemptive/seed=1":      {168, 1, "177", 1},
	"thirds/preemptive/seed=1":         {168, 1, "177", 1},
	"thirds/splittable/seed=2":         {170, 1, "178", 1},
	"thirds/nonpreemptive/seed=2":      {170, 1, "178", 1},
	"thirds/preemptive/seed=2":         {170, 1, "178", 1},
	"thirds/splittable/seed=3":         {169, 1, "174", 1},
	"thirds/nonpreemptive/seed=3":      {169, 1, "174", 1},
	"thirds/preemptive/seed=3":         {169, 1, "174", 1},
	"thirds/splittable/seed=4":         {170, 1, "180", 1},
	"thirds/nonpreemptive/seed=4":      {170, 1, "180", 1},
	"thirds/preemptive/seed=4":         {170, 1, "180", 1},
	"thirds/splittable/seed=5":         {170, 1, "176", 1},
	"thirds/nonpreemptive/seed=5":      {170, 1, "176", 1},
	"thirds/preemptive/seed=5":         {170, 1, "176", 1},
	"tightslots/splittable/seed=1":     {352, 1, "352", 150},
	"tightslots/nonpreemptive/seed=1":  {352, 1, "352", 124},
	"tightslots/preemptive/seed=1":     {352, 1, "352", 1},
	"tightslots/splittable/seed=2":     {185, 1, "185", 150},
	"tightslots/nonpreemptive/seed=2":  {185, 1, "185", 150},
	"tightslots/preemptive/seed=2":     {185, 1, "185", 1},
	"tightslots/splittable/seed=3":     {213, 1, "213", 1},
	"tightslots/nonpreemptive/seed=3":  {213, 1, "213", 1},
	"tightslots/preemptive/seed=3":     {213, 1, "213", 1},
	"tightslots/splittable/seed=4":     {386, 1, "386", 26},
	"tightslots/nonpreemptive/seed=4":  {386, 1, "386", 99},
	"tightslots/preemptive/seed=4":     {386, 1, "386", 1},
	"tightslots/splittable/seed=5":     {250, 1, "250", 1},
	"tightslots/nonpreemptive/seed=5":  {250, 1, "250", 1},
	"tightslots/preemptive/seed=5":     {250, 1, "250", 1},
}

// runEngParity solves one variant and reduces the result to the pinned data.
func runEngParity(t *testing.T, variant string, in *core.Instance, opts Options) engParity {
	t.Helper()
	ctx := context.Background()
	var rep Report
	var mk *big.Rat
	switch variant {
	case "splittable":
		r, err := SolveSplittable(ctx, in, opts)
		if err != nil {
			t.Fatalf("splittable: %v", err)
		}
		rep, mk = r.Report, r.Makespan()
	case "nonpreemptive":
		r, err := SolveNonPreemptive(ctx, in, opts)
		if err != nil {
			t.Fatalf("nonpreemptive: %v", err)
		}
		rep, mk = r.Report, new(big.Rat).SetInt64(r.Schedule.Makespan(in))
	case "preemptive":
		r, err := SolvePreemptive(ctx, in, opts)
		if err != nil {
			t.Fatalf("preemptive: %v", err)
		}
		rep, mk = r.Report, r.Makespan()
	default:
		t.Fatalf("unknown variant %q", variant)
	}
	return engParity{guess: rep.Guess, guesses: rep.Guesses, makespan: mk.RatString(), nodes: rep.BBNodes}
}

func TestEngineParallelismParityAllFamilies(t *testing.T) {
	variants := []string{"splittable", "nonpreemptive", "preemptive"}
	for _, fam := range generator.Families() {
		for seed := int64(1); seed <= 5; seed++ {
			in := fam.Gen(generator.Config{
				N: 15, Classes: 3, Machines: 3, Slots: 2, PMax: 80, Seed: seed,
			})
			for _, variant := range variants {
				variant, in := variant, in
				name := fmt.Sprintf("%s/%s/seed=%d", fam.Name, variant, seed)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					// δ = 1/2 makes the exact engine branch (δ = 1 for the
					// preemptive scheme, whose configuration set at 1/2 would
					// dominate the suite).
					opts := Options{Epsilon: 0.5, MaxNodes: 150}
					if variant == "preemptive" {
						opts.Epsilon = 1.0
					}
					want, ok := engParityWant[name]
					if !ok {
						t.Fatalf("no recorded values for %s", name)
					}
					if got := runEngParity(t, variant, in, opts); got != want {
						t.Fatalf("got (guess, probes, makespan, nodes) = %v, recorded %v; new row:\n\t%q: {%d, %d, %q, %d},",
							got, want, name, got.guess, got.guesses, got.makespan, got.nodes)
					}
				})
			}
		}
	}
}
