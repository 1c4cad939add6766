package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ccsched"
	"ccsched/internal/server"
)

// BenchmarkSolveApproxHTTP is the service layer's row for the requests that
// dominate a mixed load: one /v1/solve POST of a TierApprox request (uniform
// n=2000, C=200, m=100, c=3, pmax 10000 — perfbench serve-mix's approx
// requests) through an httptest listener, answer read to the end. Every
// iteration sends a distinct instance, so each one decodes, canonicalizes,
// solves, remaps and encodes instead of answering from the result LRU.
// Allocations count the whole process, server goroutines included.
func BenchmarkSolveApproxHTTP(b *testing.B) {
	for _, variant := range []ccsched.Variant{ccsched.Splittable, ccsched.Preemptive, ccsched.NonPreemptive} {
		b.Run(variant.String(), func(b *testing.B) {
			bodies := make([][]byte, b.N)
			for i := range bodies {
				in, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
					N: 2000, Classes: 200, Machines: 100, Slots: 3, PMax: 10000, Seed: int64(i + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				req := server.SolveRequest{Instance: in, Options: ccsched.Options{Variant: variant, Tier: ccsched.TierApprox}}
				if bodies[i], err = json.Marshal(req); err != nil {
					b.Fatal(err)
				}
			}
			s := server.New(server.Config{})
			ts := httptest.NewServer(s.Handler())
			b.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
				defer cancel()
				_ = s.Shutdown(ctx)
				ts.Close()
			})
			b.ReportAllocs()
			b.ResetTimer()
			for _, body := range bodies {
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					b.Fatalf("HTTP %d: %v", resp.StatusCode, err)
				}
			}
		})
	}
}
