package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"ccsched"
)

// Per-stage rows of an approx /v1/solve request of the serve-mix shape
// (uniform n=2000, C=200, m=100, c=3, pmax 10000): decode, canonicalize,
// request key and response rendering, each alone. BenchmarkSolveApproxHTTP
// (bench_test.go) is the same request end to end.

// stageInstance is the serve-mix approx instance.
func stageInstance(b *testing.B) *ccsched.Instance {
	in, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
		N: 2000, Classes: 200, Machines: 100, Slots: 3, PMax: 10000, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return in
}

// BenchmarkDecodeSolveRequest reads one marshalled request body the way
// handleSolve does (walker), and through json.Decoder alone (decoder), the
// path a declined body takes.
func BenchmarkDecodeSolveRequest(b *testing.B) {
	body, err := json.Marshal(SolveRequest{Instance: stageInstance(b), Options: ccsched.Options{Tier: ccsched.TierApprox}})
	if err != nil {
		b.Fatal(err)
	}
	s := &Server{cfg: Config{MaxBodyBytes: 32 << 20}}
	b.Run("walker", func(b *testing.B) {
		rd := bytes.NewReader(body)
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", rd)
		w := httptest.NewRecorder()
		b.ReportAllocs()
		for b.Loop() {
			rd.Reset(body)
			r.Body = io.NopCloser(rd)
			if _, err := s.decodeSolveRequest(w, r); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decoder", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			var req SolveRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCanonicalize canonicalizes the instance and digests the result.
func BenchmarkCanonicalize(b *testing.B) {
	in := stageInstance(b)
	b.Run("canonicalize", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			canonicalize(in)
		}
	})
	canon := canonicalize(in).in
	b.Run("key", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			requestKey(canon, ccsched.Options{Tier: ccsched.TierApprox})
		}
	})
}

// BenchmarkRenderSolveResponse maps a canonical approx result back to the
// request's job order and renders the response body, per variant.
func BenchmarkRenderSolveResponse(b *testing.B) {
	in := stageInstance(b)
	c := canonicalize(in)
	for _, variant := range []ccsched.Variant{ccsched.Splittable, ccsched.Preemptive, ccsched.NonPreemptive} {
		res, err := ccsched.Solve(context.Background(), c.in, ccsched.Options{Variant: variant, Tier: ccsched.TierApprox})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(variant.String(), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				resp := SolveResponse{ID: "j-0000000000000001", Status: StatusDone, Result: remapResult(res, c.perm), SolveMs: 0.5}
				if _, err := appendSolveResponse(nil, &resp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
