package server

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"ccsched"
)

// TestSolveResponseWireBytes pins appendSolveResponse to json.Encoder byte
// for byte and checks that it never fails: approx and PTAS results of all
// three variants, traced, degraded and anytime results, a result with no
// schedule, and every optional envelope field, including strings that
// encoding/json escapes.
func TestSolveResponseWireBytes(t *testing.T) {
	in := genInstance(t, "uniform", 14, 4, 3, 2, 22)
	var results []*ccsched.Result
	for _, variant := range []ccsched.Variant{ccsched.Splittable, ccsched.Preemptive, ccsched.NonPreemptive} {
		for _, opts := range []ccsched.Options{
			{Variant: variant, Tier: ccsched.TierApprox},
			{Variant: variant, Tier: ccsched.TierPTAS, Epsilon: 1, MaxNodes: 200, Trace: true},
		} {
			res, err := ccsched.Solve(context.Background(), in, opts)
			if err != nil {
				t.Fatal(err)
			}
			c := canonicalize(in)
			results = append(results, res, remapResult(res, c.perm))
		}
	}
	degraded := *results[0]
	degraded.Degraded = true
	anytime := *results[2]
	anytime.Anytime = &ccsched.AnytimeInfo{Rung: 1, Rungs: 3, Epsilon: 0.5, Gap: 0.125}
	results = append(results, &degraded, &anytime, &ccsched.Result{Variant: ccsched.Preemptive, Tier: ccsched.TierExact})
	envelopes := []SolveResponse{
		{ID: "j-1", Status: StatusDone},
		{ID: `j-"<&>"\`, Status: StatusDone, SolveMs: 1.25e-7, Coalesced: true, Cached: true, RequestID: "r<1>"},
		{ID: "j-3", Status: StatusError, Error: "a & b", SolveMs: 12345678.5},
	}
	for i, res := range results {
		for k, env := range envelopes {
			env.Result = res
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(env); err != nil {
				t.Fatal(err)
			}
			got, err := appendSolveResponse(nil, &env)
			if err != nil {
				t.Fatalf("result %d envelope %d: %v", i, k, err)
			}
			if got = append(got, '\n'); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("result %d envelope %d:\n got %.400s\nwant %.400s", i, k, got, want.Bytes())
			}
		}
	}
}

// TestSolveResponseRoomForNewline checks that appendSolveResponse leaves
// room for the newline writeSolveResponse adds, so the body is written from
// the buffer its one growth sized.
func TestSolveResponseRoomForNewline(t *testing.T) {
	in := genInstance(t, "uniform", 30, 4, 3, 2, 5)
	for _, variant := range []ccsched.Variant{ccsched.Splittable, ccsched.Preemptive, ccsched.NonPreemptive} {
		res, err := ccsched.Solve(context.Background(), in, ccsched.Options{Variant: variant, Tier: ccsched.TierApprox})
		if err != nil {
			t.Fatal(err)
		}
		b, err := appendSolveResponse(nil, &SolveResponse{ID: "j-1", Status: StatusDone, Result: res, RequestID: "r-1"})
		if err != nil {
			t.Fatal(err)
		}
		if cap(b) == len(b) {
			t.Fatalf("%v: no room for the newline after %d bytes", variant, len(b))
		}
	}
}
