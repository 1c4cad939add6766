package ccsched

import (
	"context"
	"errors"
	"testing"
	"time"

	"ccsched/internal/generator"
)

// TestFineEpsilonSolveMeetsDeadline solves n=40 zipf draws preemptively at
// ε=¼ under deadlines that fall while a probe is still being built (the
// template's interval configurations, the shared A block and the brick
// loop, at 10 ms) or flattened for branch and bound (60–120 ms). Each of
// those loops polls the context, so every solve must return within the
// deadline plus deadlineSlack.
//
// On a 2-CPU x86-64 host the solves return 0.05–2.1 ms after a 10 ms
// deadline; before those loops polled, the same draws returned 30–126 ms
// after it. Before nfold's Flatten polled inside a brick, the 60–120 ms
// deadlines were overrun by up to ~29 ms.
func TestFineEpsilonSolveMeetsDeadline(t *testing.T) {
	const deadlineSlack = 20 * time.Millisecond
	for _, deadline := range []time.Duration{10 * time.Millisecond, 60 * time.Millisecond, 90 * time.Millisecond, 120 * time.Millisecond} {
		for seed := int64(1); seed <= 4; seed++ {
			in := generator.Zipf(generator.Config{N: 40, Classes: 4, Machines: 3, Slots: 2, PMax: 50, Seed: seed})
			ctx, cancel := context.WithTimeout(context.Background(), deadline)
			start := time.Now()
			_, err := Solve(ctx, in, Options{Variant: Preemptive, Tier: TierPTAS, Epsilon: 0.25})
			took := time.Since(start)
			cancel()
			if err != nil && !errors.Is(err, ErrCanceled) {
				t.Fatalf("deadline %v seed %d: %v", deadline, seed, err)
			}
			if took > deadline+deadlineSlack {
				t.Errorf("deadline %v seed %d: returned after %v, past the deadline plus %v slack", deadline, seed, took, deadlineSlack)
			}
		}
	}
}
