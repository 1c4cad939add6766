package ccsched_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/big"
	"reflect"
	"testing"
	"time"

	"ccsched"
	"ccsched/internal/core"
	"ccsched/internal/rat"
)

// TestOptionsJSONRoundTrip checks Options survives the wire: variants and
// tiers as names, knobs as numbers, and the process-local Cache excluded.
func TestOptionsJSONRoundTrip(t *testing.T) {
	opts := ccsched.Options{
		Variant:    ccsched.NonPreemptive,
		Tier:       ccsched.TierPTAS,
		Epsilon:    0.25,
		Cache:      ccsched.NewFeasibilityCache(),
		NoCache:    false,
		MaxNodes:   500,
		MaxConfigs: 9000,
	}
	data, err := json.Marshal(opts)
	if err != nil {
		t.Fatal(err)
	}
	var back ccsched.Options
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	want := opts
	want.Cache = nil // never serialized
	if !reflect.DeepEqual(back, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v\nwire %s", back, want, data)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m["variant"] != "non-preemptive" || m["tier"] != "ptas" {
		t.Fatalf("wire names: variant=%v tier=%v", m["variant"], m["tier"])
	}
	if _, leaked := m["Cache"]; leaked {
		t.Fatal("Cache leaked into JSON")
	}
}

// TestResultJSONRoundTrip solves a small instance per variant and checks
// the Result JSON round-trips losslessly: exact rationals come back equal
// and the decoded schedule still validates against the instance.
func TestResultJSONRoundTrip(t *testing.T) {
	in := solveTestInstance(t, 20, 5, 4)
	for _, variant := range []ccsched.Variant{ccsched.Splittable, ccsched.Preemptive, ccsched.NonPreemptive} {
		res, err := ccsched.Solve(context.Background(), in, ccsched.Options{Variant: variant, Tier: ccsched.TierApprox})
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		var back ccsched.Result
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if back.Variant != res.Variant || back.Tier != res.Tier {
			t.Fatalf("%v: variant/tier changed: %v/%v", variant, back.Variant, back.Tier)
		}
		if back.Makespan.Cmp(res.Makespan) != 0 || back.LowerBound.Cmp(res.LowerBound) != 0 {
			t.Fatalf("%v: rationals changed: %s/%s vs %s/%s",
				variant, back.Makespan, back.LowerBound, res.Makespan, res.LowerBound)
		}
		switch variant {
		case ccsched.Splittable:
			if err := back.CompactSplit.Validate(in); err != nil {
				t.Fatalf("%v: decoded schedule invalid: %v", variant, err)
			}
		case ccsched.Preemptive:
			if err := back.Preemptive.Validate(in); err != nil {
				t.Fatalf("%v: decoded schedule invalid: %v", variant, err)
			}
		case ccsched.NonPreemptive:
			if err := back.NonPreemptive.Validate(in); err != nil {
				t.Fatalf("%v: decoded schedule invalid: %v", variant, err)
			}
		}
	}
}

// Method-less copies of the schedule types: encoding/json codes them by
// reflection, the reference the hand-written MarshalJSON methods must match.
type (
	splitRef         core.SplitSchedule
	compactSplitRef  core.CompactSplitSchedule
	preemptiveRef    core.PreemptiveSchedule
	nonPreemptiveRef core.NonPreemptiveSchedule
)

// checkScheduleJSON asserts json.Marshal of each non-nil schedule in res is
// byte-identical to the reflection encoding of its method-less copy, and
// that the whole Result encodes to the same bytes either way, through
// json.Marshal and through AppendJSON.
func checkScheduleJSON(t *testing.T, name string, res *ccsched.Result) {
	t.Helper()
	same := func(what string, v, ref any) {
		t.Helper()
		got, err := json.Marshal(v)
		if err != nil {
			t.Fatalf("%s %s: %v", name, what, err)
		}
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatalf("%s %s reference: %v", name, what, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s %s:\n got %.300s\nwant %.300s", name, what, got, want)
		}
	}
	// resultRef mirrors Result's wire shape with the reflection copies.
	type resultRef struct {
		Variant       ccsched.Variant      `json:"variant"`
		Tier          ccsched.Tier         `json:"tier"`
		Makespan      *big.Rat             `json:"makespan"`
		LowerBound    *big.Rat             `json:"lower_bound"`
		Split         *splitRef            `json:"split,omitempty"`
		CompactSplit  *compactSplitRef     `json:"compact_split,omitempty"`
		Preemptive    *preemptiveRef       `json:"preemptive,omitempty"`
		NonPreemptive *nonPreemptiveRef    `json:"non_preemptive,omitempty"`
		Degraded      bool                 `json:"degraded,omitempty"`
		Report        ccsched.PTASReport   `json:"report"`
		Trace         *ccsched.SolveTrace  `json:"trace,omitempty"`
		Anytime       *ccsched.AnytimeInfo `json:"anytime,omitempty"`
	}
	ref := resultRef{
		Variant: res.Variant, Tier: res.Tier, Makespan: res.Makespan, LowerBound: res.LowerBound,
		Split: (*splitRef)(res.Split), CompactSplit: (*compactSplitRef)(res.CompactSplit),
		Preemptive: (*preemptiveRef)(res.Preemptive), NonPreemptive: (*nonPreemptiveRef)(res.NonPreemptive),
		Degraded: res.Degraded, Report: res.Report, Trace: res.Trace, Anytime: res.Anytime,
	}
	same("result", res, ref)
	got, err := res.AppendJSON([]byte("prefix"))
	if err != nil {
		t.Fatalf("%s AppendJSON: %v", name, err)
	}
	if want, _ := json.Marshal(ref); !bytes.Equal(got, append([]byte("prefix"), want...)) {
		t.Fatalf("%s AppendJSON:\n got %.300s\nwant prefix%.300s", name, got, want)
	}
	if s := res.Split; s != nil {
		same("split", s, splitRef(*s))
		same("split value", *s, splitRef(*s))
	}
	if s := res.CompactSplit; s != nil {
		same("compact split", s, compactSplitRef(*s))
	}
	if s := res.Preemptive; s != nil {
		same("preemptive", s, preemptiveRef(*s))
	}
	if s := res.NonPreemptive; s != nil {
		same("non-preemptive", s, nonPreemptiveRef(*s))
	}
}

// TestScheduleJSONMatchesReflection pins every schedule type's hand-written
// MarshalJSON, and Result.AppendJSON, to encoding/json's reflection
// encoding, byte for byte, on
// approx and PTAS results of all three variants and on hand-built edge
// cases: nil and empty slices, a group with no pieces, wide rationals.
func TestScheduleJSONMatchesReflection(t *testing.T) {
	for _, tc := range variantCases(t, 22) {
		for _, opts := range []ccsched.Options{
			{Variant: tc.variant, Tier: ccsched.TierApprox},
			{Variant: tc.variant, Tier: ccsched.TierPTAS, Epsilon: 1, MaxNodes: tc.maxNodes},
		} {
			res, err := ccsched.Solve(context.Background(), tc.in, opts)
			if err != nil {
				t.Fatalf("%v %v: %v", tc.variant, opts.Tier, err)
			}
			checkScheduleJSON(t, tc.variant.String()+"/"+opts.Tier.String(), res)
		}
	}
	large := solveTestInstance(t, 300, 30, 10)
	for _, variant := range []ccsched.Variant{ccsched.Splittable, ccsched.Preemptive, ccsched.NonPreemptive} {
		res, err := ccsched.Solve(context.Background(), large, ccsched.Options{Variant: variant, Tier: ccsched.TierApprox})
		if err != nil {
			t.Fatal(err)
		}
		checkScheduleJSON(t, variant.String()+"/approx n=300", res)
	}
	big2 := rat.FromBig(new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(3), 70), big.NewInt(7)))
	half, neg := rat.Frac(1, 2), rat.Frac(-5, 3)
	for i, res := range []*ccsched.Result{
		{Split: &ccsched.SplitSchedule{}, CompactSplit: &ccsched.CompactSplitSchedule{},
			Preemptive: &ccsched.PreemptiveSchedule{}, NonPreemptive: &ccsched.NonPreemptiveSchedule{}},
		{Split: &ccsched.SplitSchedule{Pieces: []ccsched.SplitPiece{}},
			CompactSplit:  &ccsched.CompactSplitSchedule{Groups: []ccsched.MachineGroup{}},
			Preemptive:    &ccsched.PreemptiveSchedule{Pieces: []ccsched.PreemptivePiece{}},
			NonPreemptive: &ccsched.NonPreemptiveSchedule{Assign: []int64{}}},
		{Split: &ccsched.SplitSchedule{Pieces: []ccsched.SplitPiece{{}, {Job: 3, Machine: 1 << 62, Size: big2}, {Job: 1, Size: neg}}},
			CompactSplit: &ccsched.CompactSplitSchedule{Groups: []ccsched.MachineGroup{
				{Count: 1 << 61}, {Count: 2, Pieces: []ccsched.GroupPiece{}}, {Count: 3, Pieces: []ccsched.GroupPiece{{Job: 2, Size: big2}, {Size: half}}}}},
			Preemptive:    &ccsched.PreemptiveSchedule{Pieces: []ccsched.PreemptivePiece{{Job: 4, Machine: 9, Start: big2, Size: half}, {}}},
			NonPreemptive: &ccsched.NonPreemptiveSchedule{Assign: []int64{0, -1, 1 << 62}}},
	} {
		checkScheduleJSON(t, "edge case "+string(rune('0'+i)), res)
	}
}

// TestSolveCanceledSentinel checks the ErrCanceled satellite: cancellation
// surfaces as an error satisfying both errors.Is(err, ErrCanceled) and the
// specific context error, with no variant-specific internals leaking.
func TestSolveCanceledSentinel(t *testing.T) {
	in := solveTestInstance(t, 20, 4, 3)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ccsched.Solve(ctx, in, ccsched.Options{Variant: ccsched.Splittable})
	if !errors.Is(err, ccsched.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled: got %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("pre-canceled: %v claims DeadlineExceeded too", err)
	}

	big := cancelInstance(t)
	dctx, dcancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer dcancel()
	_, err = ccsched.Solve(dctx, big, ccsched.Options{
		Variant: ccsched.NonPreemptive, Tier: ccsched.TierPTAS, Epsilon: 0.5, NoCache: true,
	})
	if !errors.Is(err, ccsched.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-solve deadline: got %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}
