package ccsched

// The PR 6 restore benchmark: the cost of bringing a churn-scale durable
// session back from its snapshot. One op = RestoreSession on the serialized
// state of the resize-churn workload (uniform n=1000, splittable PTAS at
// ε=1) after several solved rounds — envelope validation, instance-digest
// check, and the decode of the feasibility cache section. It bounds the
// boot-time line in ccserved's restore-on-boot path and the latency of a
// PUT /v1/sessions/{id}/export migration; the CI perf gate tracks it via
// scripts/benchdiff.

import (
	"context"
	"testing"
)

// churnSnapshot builds the benchmark input: the resize-churn session after
// rounds solved rounds, serialized with SnapshotState.
func churnSnapshot(b *testing.B, rounds int) []byte {
	b.Helper()
	ctx := context.Background()
	sess, err := NewSession(churnBase(b), churnOpts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Solve(ctx); err != nil {
		b.Fatal(err)
	}
	mirror := sess.Instance()
	ids := sess.JobIDs()
	for i := 0; i < rounds; i++ {
		prev := append([]int64(nil), mirror.P...)
		resizeRound(i, mirror.P)
		for pos := range mirror.P {
			if mirror.P[pos] != prev[pos] {
				if err := sess.Resize(ids[pos], mirror.P[pos]); err != nil {
					b.Fatal(err)
				}
			}
		}
		if _, err := sess.Solve(ctx); err != nil {
			b.Fatal(err)
		}
	}
	data, err := sess.SnapshotState()
	if err != nil {
		b.Fatal(err)
	}
	return data
}

// BenchmarkSessionRestore measures RestoreSession on the resize-churn
// session's snapshot after four solved rounds (the cache a ccserved
// checkpoint or export carries at steady state).
func BenchmarkSessionRestore(b *testing.B) {
	data := churnSnapshot(b, 4)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreSession(data); err != nil {
			b.Fatal(err)
		}
	}
}
