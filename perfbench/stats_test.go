package main

import (
	"math"
	"testing"
	"time"

	"ccsched"
)

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted input: 100..1
	}
	v, p := tail(xs)
	if v != 90 || p != 90 {
		t.Fatalf("tail of 1..100 = %v at p%v, want 90 at p90", v, p)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond != tailSamples {
		t.Fatalf("%d samples beyond the tail, want %d", beyond, tailSamples)
	}
	if v, p := tail(xs[:11]); v != 90 || math.Abs(p-100.0/11) > 1e-9 {
		t.Fatalf("tail of 11 samples = %v at p%v, want the smallest at p9.09", v, p)
	}
	if v, p := tail([]float64{3, 1, 2}); v != 1 || p != 0 {
		t.Fatalf("tail of 3 samples = %v at p%v, want the minimum at p0", v, p)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("median = %v, want 3", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("median of nothing = %v, want 0", m)
	}
}

func TestSharesCountAgainstAttempted(t *testing.T) {
	r := newRecorder()
	r.ops = []op{
		{latMs: 10, quality: 1.5},
		{latMs: 20, quality: 1.5, degraded: true},
		{latMs: 30, quality: 1.5},
	}
	r.fail(op{latMs: 2000}, nil)
	m := r.endToEndMetrics()
	for name, want := range map[string]float64{
		"failed_share":    0.25, // 1 of 4 attempted, not 1 of 3 completed
		"ok_share":        0.75,
		"degraded_share":  0.25,
		"full_tier_share": 0.5,
		"latency_p50_ms":  20, // failed ops carry no latency sample
		"quality_ratio":   1.5,
	} {
		if got := m[name].Value; math.Abs(got-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if share(1, 0) != 0 {
		t.Error("share with nothing attempted is not 0")
	}
}

func TestHistQuantile(t *testing.T) {
	bounds := []float64{1, 5, 10, math.Inf(1)}
	cum := []int64{50, 90, 99, 100}
	for q, want := range map[float64]float64{0.5: 1, 0.51: 5, 0.9: 5, 0.99: 10, 1: 10} {
		if got := histQuantile(bounds, cum, q); got != want {
			t.Errorf("q%v = %v, want %v", q, got, want)
		}
	}
	if got := histQuantile(bounds, []int64{0, 0, 0, 0}, 0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	spans := []ccsched.TraceSpan{
		{Name: "guess_search", Parent: -1, StartUs: 0, DurUs: 100},
		{Name: "probe", Parent: 0, StartUs: 10, DurUs: 30},   // [10,40]
		{Name: "probe", Parent: 0, StartUs: 30, DurUs: 30},   // [30,60], overlaps the first
		{Name: "probe", Parent: 0, StartUs: 90, DurUs: 30},   // [90,120], runs past the parent
		{Name: "bb_nodes", Parent: 1, StartUs: 15, DurUs: 5}, // grandchild: not the parent's child
	}
	l := newLedger()
	l.fold(&ccsched.SolveTrace{
		Spans:      spans,
		Aggregated: []ccsched.TraceAggregate{{Name: "bb_nodes", Count: 3, TotalUs: 7}},
	})
	// Children cover [10,60] and [90,100]: 60 of the parent's 100µs.
	if got := l.selfUs["guess_search"]; got != 40 {
		t.Errorf("guess_search self = %dµs, want 40", got)
	}
	// Probe self: 25 + 30 + 30; the grandchild only reduces the first.
	if got := l.selfUs["probe"]; got != 85 {
		t.Errorf("probe self = %dµs, want 85", got)
	}
	// Aggregated rows fold in as leaves: 5 recorded + 7 aggregated.
	if got := l.selfUs["bb_nodes"]; got != 12 {
		t.Errorf("bb_nodes self = %dµs, want 12", got)
	}
	if got := l.perTraceMs("guess_search"); got != 0.04 {
		t.Errorf("per-trace guess_search = %vms, want 0.04", got)
	}
}

func TestProbeOutcomes(t *testing.T) {
	spans := []ccsched.TraceSpan{
		{Name: "probe", Parent: -1, DurUs: 10},
		{Name: "nfold_augment", Parent: 0, DurUs: 5, Attrs: []ccsched.TraceAttr{{Key: "status", Val: nfoldFeasible}}},
		{Name: "probe", Parent: -1, DurUs: 10},
		{Name: "nfold_augment", Parent: 2, DurUs: 5, Attrs: []ccsched.TraceAttr{{Key: "status", Val: 2}}},
		{Name: "bb", Parent: 2, DurUs: 5, Attrs: []ccsched.TraceAttr{{Key: "status", Val: ilpNodeLimit}}},
		{Name: "probe", Parent: -1, DurUs: 1, Attrs: []ccsched.TraceAttr{{Key: "cache_hit", Val: 1}}},
	}
	l := newLedger()
	l.fold(&ccsched.SolveTrace{Spans: spans})
	if l.engineProbes != 2 || l.augmentDecided != 1 || l.budgetExhausted != 1 {
		t.Fatalf("engine probes %d, augment-decided %d, budget-exhausted %d; want 2, 1, 1",
			l.engineProbes, l.augmentDecided, l.budgetExhausted)
	}
}

func TestOpenLoopLatencyRunsFromDueTime(t *testing.T) {
	// One request at a time is served (a single connection), each taking
	// 40ms, while requests are due every 10ms: the open loop keeps
	// dispatching on schedule, and each request's latency includes the
	// wait behind the ones before it.
	const service = 40 * time.Millisecond
	conn := make(chan struct{}, 1)
	send := func(_ *request, _ *result) {
		conn <- struct{}{}
		time.Sleep(service)
		<-conn
	}
	reqs := make([]*request, 4)
	for i := range reqs {
		reqs[i] = &request{}
	}
	results, backlog := openLoop(reqs, []int{4}, []float64{100}, send)
	for i, res := range results {
		if want := float64(10 * i); math.Abs(res.dueMs-want) > 1e-9 {
			t.Fatalf("request %d due at %vms, want %vms", i, res.dueMs, want)
		}
		if res.lagMs < 0 || res.lagMs > 8 {
			t.Errorf("request %d dispatched %vms late; an open loop must not wait for replies", i, res.lagMs)
		}
		if res.latMs < res.serviceMs-1e-9 {
			t.Errorf("request %d latency %vms below its service time %vms", i, res.latMs, res.serviceMs)
		}
	}
	// All four complete back to back: the last one ~160ms after the start,
	// so its latency from due (30ms) is ~130ms, far above one service time.
	last := results[len(results)-1]
	if last.latMs < 4*40-30-5 {
		t.Errorf("last request latency %vms; the queue wait behind a stalled connection is missing", last.latMs)
	}
	if backlog[0] < 1 {
		t.Errorf("backlog at phase end = %d, want requests still outstanding", backlog[0])
	}
}

func TestOpenLoopTwinSharesDueTime(t *testing.T) {
	// A twin is dispatched with the request before it; the requests after
	// it keep their own slots, so the phase's rate is unchanged.
	reqs := []*request{{}, {withPrev: true}, {}, {}}
	results, _ := openLoop(reqs, []int{4}, []float64{100}, func(*request, *result) {})
	for i, want := range []float64{0, 0, 20, 30} {
		if got := results[i].dueMs; math.Abs(got-want) > 1e-9 {
			t.Errorf("request %d due at %vms, want %vms", i, got, want)
		}
	}
}
