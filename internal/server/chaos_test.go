package server_test

// Chaos suite: every test arms a fault at a registered injection point and
// asserts the process-wide resilience invariant — an armed fault yields
// either a correct result or a clean typed error, never a wrong makespan, a
// leaked goroutine, or a dead process. Each test ends with a goroutine-leak
// check and a deferred faultinject.Reset so faults never bleed across tests.

import (
	"bytes"
	"context"
	"encoding/json"
	"math/big"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ccsched"
	"ccsched/internal/faultinject"
	"ccsched/internal/server"
	"ccsched/internal/testutil"
)

// postSolveRaw submits one solve request and returns the raw response, so
// chaos tests can read headers (Retry-After) alongside the decoded body.
func postSolveRaw(t *testing.T, url string, req server.SolveRequest, query string) (*http.Response, server.SolveResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/solve"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out server.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp, out
}

// assertTwoApprox fails unless a degraded result carries a certified lower
// bound with makespan within a factor of two of it.
func assertTwoApprox(t *testing.T, res *ccsched.Result) {
	t.Helper()
	if !res.Degraded {
		t.Fatalf("result not marked degraded: %+v", res)
	}
	if res.LowerBound == nil || res.Makespan == nil {
		t.Fatalf("degraded result missing certificate: makespan=%v lb=%v", res.Makespan, res.LowerBound)
	}
	two := new(big.Rat).Mul(big.NewRat(2, 1), res.LowerBound)
	if res.Makespan.Cmp(two) > 0 {
		t.Fatalf("degraded makespan %s > 2x lower bound %s", res.Makespan.RatString(), res.LowerBound.RatString())
	}
	if res.Makespan.Cmp(res.LowerBound) < 0 {
		t.Fatalf("makespan %s below its own lower bound %s", res.Makespan.RatString(), res.LowerBound.RatString())
	}
}

// TestChaosPanicQuarantine walks one request key through the whole panic
// lifecycle: an armed panic at the flight runner becomes a clean HTTP 500
// (process alive, result never cached), the second panic trips the
// quarantine (422 + Retry-After for new submissions of that key), and after
// the TTL one submission is let through and — with the fault exhausted —
// solves normally, clearing the streak.
func TestChaosPanicQuarantine(t *testing.T) {
	defer faultinject.Reset()
	s, ts := startServer(t, server.Config{
		Workers:                  2,
		PanicQuarantineThreshold: 2,
		PanicQuarantineTTL:       300 * time.Millisecond,
	})
	leak := testutil.LeakCheck(t)
	if err := faultinject.Arm("server.worker", faultinject.Spec{Mode: faultinject.ModePanic, Hits: 2}); err != nil {
		t.Fatal(err)
	}
	in := testInstance(12, 1)
	req := server.SolveRequest{Instance: in, Options: ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierApprox}}

	for i := 0; i < 2; i++ {
		st, out := postSolve(t, ts.URL, req, "")
		if st != http.StatusInternalServerError || out.Status != server.StatusError {
			t.Fatalf("panic solve %d: HTTP %d %+v, want 500 error", i, st, out)
		}
	}
	m := s.Metrics()
	if m.PanicsRecoveredTotal != 2 || m.KeysQuarantinedTotal != 1 {
		t.Fatalf("metrics %+v: want panics_recovered=2 keys_quarantined=1", m)
	}
	// The key is quarantined: refused up front, no worker touched.
	resp, out := postSolveRaw(t, ts.URL, req, "")
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("quarantined submission: HTTP %d %+v, want 422", resp.StatusCode, out)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("quarantine rejection missing Retry-After header")
	}
	if m := s.Metrics(); m.RejectedQuarantinedTotal != 1 {
		t.Fatalf("rejected_quarantined %d, want 1", m.RejectedQuarantinedTotal)
	}
	// Unrelated keys are unaffected by the quarantine.
	if st, _ := postSolve(t, ts.URL, server.SolveRequest{Instance: testInstance(12, 5), Options: req.Options}, ""); st != http.StatusOK {
		t.Fatalf("unrelated key during quarantine: HTTP %d, want 200", st)
	}
	// After the TTL one re-test goes through; the fault's hit budget is
	// spent, so it solves cleanly and resets the streak.
	time.Sleep(350 * time.Millisecond)
	st, out := postSolve(t, ts.URL, req, "")
	if st != http.StatusOK || out.Status != server.StatusDone {
		t.Fatalf("post-TTL re-test: HTTP %d %+v, want done", st, out)
	}
	leak()
}

// TestChaosSoftTimeoutDegrades holds the full-tier solve hostage with a
// gated solver and checks the soft deadline answers with the certified
// 2-approx, a coalesced second waiter reuses the cached degraded answer,
// and the full solve still publishes (retiring the degraded twin).
func TestChaosSoftTimeoutDegrades(t *testing.T) {
	g := newGatedSolver()
	s, ts := startServer(t, server.Config{Workers: 1, Solver: g.solve})
	leak := testutil.LeakCheck(t)
	in := testInstance(20, 2)
	req := server.SolveRequest{
		Instance:      in,
		Options:       ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierAuto},
		SoftTimeoutMs: 50,
	}
	st, out := postSolve(t, ts.URL, req, "")
	if st != http.StatusOK || out.Status != server.StatusDone || out.Result == nil {
		t.Fatalf("degraded solve: HTTP %d %+v", st, out)
	}
	assertTwoApprox(t, out.Result)
	if m := s.Metrics(); m.DegradedServedTotal != 1 {
		t.Fatalf("degraded_served %d, want 1", m.DegradedServedTotal)
	}
	// A second waiter coalesces onto the still-gated flight and is served
	// the cached degraded answer — no second fallback solve, no second
	// full solve.
	st, out2 := postSolve(t, ts.URL, req, "")
	if st != http.StatusOK || !out2.Result.Degraded {
		t.Fatalf("second degraded solve: HTTP %d %+v", st, out2)
	}
	if out2.Result.Makespan.Cmp(out.Result.Makespan) != 0 {
		t.Fatalf("degraded answers disagree: %s vs %s", out2.Result.Makespan.RatString(), out.Result.Makespan.RatString())
	}
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("%d full-tier solver invocations, want 1 (degraded answers must not spawn more)", n)
	}
	// Release the full solve; its publish replaces the degraded twin, so the
	// next identical request gets the full answer from the result cache.
	close(g.release)
	waitMetrics(t, s, "full solve published", func(m server.MetricsSnapshot) bool { return m.SolvesTotal == 1 })
	st, out3 := postSolve(t, ts.URL, req, "")
	if st != http.StatusOK || out3.Result == nil || out3.Result.Degraded {
		t.Fatalf("post-publish solve: HTTP %d %+v, want full (non-degraded) result", st, out3)
	}
	if !out3.Cached {
		t.Fatalf("post-publish solve not served from the result cache: %+v", out3)
	}
	leak()
}

// TestChaosCoalescedJoinerDegrades is the late-joiner case: a request
// coalesces onto a flight whose creator already took the degraded answer,
// and the flight then dies at the creator's deadline before the joiner's own
// soft deadline fires. The joiner armed a soft deadline, so it is answered
// with the cached degraded twin, not a 408.
func TestChaosCoalescedJoinerDegrades(t *testing.T) {
	g := newGatedSolver() // never released: the flight can only time out
	s, ts := startServer(t, server.Config{Workers: 1, Solver: g.solve})
	leak := testutil.LeakCheck(t)
	req := server.SolveRequest{
		Instance:      testInstance(16, 6),
		Options:       ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierAuto},
		TimeoutMs:     300,
		SoftTimeoutMs: 100,
	}
	start := time.Now()
	st, out := postSolve(t, ts.URL, req, "")
	if st != http.StatusOK || out.Result == nil {
		t.Fatalf("creator: HTTP %d %+v, want its degraded answer", st, out)
	}
	assertTwoApprox(t, out.Result)
	time.Sleep(time.Until(start.Add(150 * time.Millisecond)))
	req.SoftTimeoutMs = 1000
	st, late := postSolve(t, ts.URL, req, "")
	if st != http.StatusOK || late.Result == nil || !late.Coalesced {
		t.Fatalf("late joiner: HTTP %d %+v, want a coalesced degraded 200", st, late)
	}
	assertTwoApprox(t, late.Result)
	if m := s.Metrics(); m.DegradedServedTotal != 2 {
		t.Fatalf("degraded_served %d, want 2", m.DegradedServedTotal)
	}
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("%d solver calls, want 1", n)
	}
	leak()
}

// TestChaosDegradedThenFullBitIdentical runs the real solver with delayed
// PTAS probes: the soft deadline serves the degraded 2-approx, the full
// solve finishes after the fault clears, and the published full result is
// bit-identical to a cold in-process solve of the same instance.
func TestChaosDegradedThenFullBitIdentical(t *testing.T) {
	defer faultinject.Reset()
	s, ts := startServer(t, server.Config{Workers: 1})
	leak := testutil.LeakCheck(t)
	if err := faultinject.Arm("ptas.probe", faultinject.Spec{Mode: faultinject.ModeDelay, Delay: 100 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	in := testInstance(24, 3)
	opts := ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, Epsilon: 0.5}
	req := server.SolveRequest{Instance: in, Options: opts, SoftTimeoutMs: 30}

	st, out := postSolve(t, ts.URL, req, "?wait=30s")
	if st != http.StatusOK || out.Result == nil {
		t.Fatalf("degraded solve: HTTP %d %+v", st, out)
	}
	assertTwoApprox(t, out.Result)
	// Clear the delay so the pinned full solve finishes promptly.
	faultinject.Clear("ptas.probe")
	waitMetrics(t, s, "full solve published", func(m server.MetricsSnapshot) bool {
		return m.SolvesTotal == 1 && m.SolveErrorsTotal == 0
	})
	st, full := postSolve(t, ts.URL, req, "")
	if st != http.StatusOK || full.Result == nil || full.Result.Degraded {
		t.Fatalf("post-publish solve: HTTP %d %+v, want full result", st, full)
	}
	cold, err := ccsched.Solve(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if full.Result.Makespan.Cmp(cold.Makespan) != 0 {
		t.Fatalf("published full makespan %s != cold solve %s (bit-identical required)",
			full.Result.Makespan.RatString(), cold.Makespan.RatString())
	}
	leak()
}

// TestChaosSaturationDegrades fills the pool and queue, then checks a
// saturated submission with a soft deadline is answered degraded while one
// without gets 429 + Retry-After.
func TestChaosSaturationDegrades(t *testing.T) {
	g := newGatedSolver()
	s, ts := startServer(t, server.Config{Workers: 1, QueueDepth: 1, Solver: g.solve})
	leak := testutil.LeakCheck(t)
	opts := ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierAuto}
	replies := make(chan int, 2)
	go func() {
		st, _ := postSolve(t, ts.URL, server.SolveRequest{Instance: testInstance(10, 1), Options: opts}, "")
		replies <- st
	}()
	g.awaitStart(t) // worker busy on A
	go func() {
		st, _ := postSolve(t, ts.URL, server.SolveRequest{Instance: testInstance(10, 2), Options: opts}, "")
		replies <- st
	}()
	waitMetrics(t, s, "queue full", func(m server.MetricsSnapshot) bool { return m.QueueDepth == 1 })

	// Saturated + soft deadline: the admission rejection converts into a
	// direct degraded answer instead of a bounce.
	st, out := postSolve(t, ts.URL, server.SolveRequest{
		Instance: testInstance(10, 3), Options: opts, SoftTimeoutMs: 100,
	}, "")
	if st != http.StatusOK || out.Result == nil {
		t.Fatalf("saturated degraded solve: HTTP %d %+v", st, out)
	}
	assertTwoApprox(t, out.Result)
	// Saturated + degradation disabled: classic 429, now with Retry-After.
	resp, _ := postSolveRaw(t, ts.URL, server.SolveRequest{
		Instance: testInstance(10, 4), Options: opts, SoftTimeoutMs: -1,
	}, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated solve: HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	close(g.release)
	for i := 0; i < 2; i++ {
		if st := <-replies; st != http.StatusOK {
			t.Fatalf("held request %d: HTTP %d", i, st)
		}
	}
	leak()
}

// TestChaosCheckpointSelfHealing is the self-healing checkpoint story end to
// end: an armed short-write makes snapshot writes fail through their
// retries, checkpointing degrades to in-memory-only (metered, 503 on
// /readyz), sessions keep serving, and once the fault clears the disk probe
// restores durability without a restart — the dirty session's snapshot
// lands on disk.
func TestChaosCheckpointSelfHealing(t *testing.T) {
	defer faultinject.Reset()
	dir := t.TempDir()
	s, ts := startServer(t, server.Config{
		Workers:            1,
		StateDir:           dir,
		CheckpointInterval: 25 * time.Millisecond,
	})
	leak := testutil.LeakCheck(t)
	// One session, solved, checkpointed cleanly first.
	body, _ := json.Marshal(server.SessionCreateRequest{
		Instance: testInstance(10, 1),
		Options:  ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierApprox},
	})
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sess server.SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sess); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sess.Status != server.StatusDone {
		t.Fatalf("session create: HTTP %d %+v", resp.StatusCode, sess)
	}
	waitMetrics(t, s, "first checkpoint", func(m server.MetricsSnapshot) bool { return m.SnapshotWritesTotal >= 1 })

	if err := faultinject.Arm("server.snapshot.write", faultinject.Spec{Mode: faultinject.ModeShortWrite}); err != nil {
		t.Fatal(err)
	}
	// Dirty the session so the checkpointer has something to write.
	patch, _ := json.Marshal(server.SessionDelta{Add: []server.SessionJob{{P: 17, Class: 0}}})
	preq, _ := http.NewRequest(http.MethodPatch, ts.URL+"/v1/sessions/"+sess.SessionID, bytes.NewReader(patch))
	presp, err := http.DefaultClient.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("patch: HTTP %d", presp.StatusCode)
	}
	// Writes fail through their retries; the streak degrades checkpointing.
	waitMetrics(t, s, "checkpointing degraded", func(m server.MetricsSnapshot) bool {
		return m.CheckpointDegraded && m.SnapshotRetriesTotal >= 1 && m.SnapshotWriteErrors >= 1
	})
	if m := s.Metrics(); m.PersistDegradedTotal != 1 {
		t.Fatalf("persist_degraded_total %d, want 1", m.PersistDegradedTotal)
	}
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready server.ReadyResponse
	if err := json.NewDecoder(rresp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("readyz while degraded: HTTP %d %+v, want 503 not-ready", rresp.StatusCode, ready)
	}
	// Liveness must NOT flip — the process is serving fine.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while degraded: HTTP %d, want 200", hresp.StatusCode)
	}
	// The session keeps serving while durability is down.
	gresp, err := http.Get(ts.URL + "/v1/sessions/" + sess.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("session get while degraded: HTTP %d, want 200", gresp.StatusCode)
	}

	// Disk "recovers": the probe succeeds, durability resumes, and the dirty
	// session's snapshot lands without a restart.
	writesBefore := s.Metrics().SnapshotWritesTotal
	faultinject.Clear("server.snapshot.write")
	waitMetrics(t, s, "durability resumed", func(m server.MetricsSnapshot) bool {
		return !m.CheckpointDegraded && m.SnapshotWritesTotal > writesBefore
	})
	rresp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp2.Body.Close()
	if rresp2.StatusCode != http.StatusOK {
		t.Fatalf("readyz after recovery: HTTP %d, want 200", rresp2.StatusCode)
	}
	if _, err := os.Stat(filepath.Join(dir, sess.SessionID+".ccsnap")); err != nil {
		t.Fatalf("snapshot file after recovery: %v", err)
	}
	leak()
}

// TestChaosInjectedErrorIsTyped checks an armed error fault at the flight
// runner surfaces as a clean typed error (HTTP 500, "injected" named in the
// message), is never cached, and the next un-faulted solve of the same key
// answers bit-identically to a cold solve.
func TestChaosInjectedErrorIsTyped(t *testing.T) {
	defer faultinject.Reset()
	_, ts := startServer(t, server.Config{Workers: 1})
	leak := testutil.LeakCheck(t)
	if err := faultinject.Arm("server.worker", faultinject.Spec{Mode: faultinject.ModeError, Msg: "chaos", Hits: 1}); err != nil {
		t.Fatal(err)
	}
	in := testInstance(16, 6)
	req := server.SolveRequest{Instance: in, Options: ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, Epsilon: 1}}
	st, out := postSolve(t, ts.URL, req, "")
	if st != http.StatusInternalServerError || out.Status != server.StatusError {
		t.Fatalf("faulted solve: HTTP %d %+v, want 500 error", st, out)
	}
	if !strings.Contains(out.Error, "injected") {
		t.Fatalf("error %q does not name the injected fault", out.Error)
	}
	// The injected failure was not cached: the retry solves for real and its
	// answer matches a cold in-process solve bit for bit.
	st, out = postSolve(t, ts.URL, req, "")
	if st != http.StatusOK || out.Result == nil {
		t.Fatalf("retry after fault: HTTP %d %+v", st, out)
	}
	cold, err := ccsched.Solve(context.Background(), in, req.Options)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Makespan.Cmp(cold.Makespan) != 0 {
		t.Fatalf("post-fault makespan %s != cold %s", out.Result.Makespan.RatString(), cold.Makespan.RatString())
	}
	leak()
}

// TestChaosEngineErrorDegradesGracefully pins the engine layer's half of the
// chaos invariant: an injected probe error inside the PTAS is absorbed by
// its certified approx fallback — the solve still answers HTTP 200 with a
// feasible schedule within 2x the lower bound, never a wrong makespan.
func TestChaosEngineErrorDegradesGracefully(t *testing.T) {
	defer faultinject.Reset()
	_, ts := startServer(t, server.Config{Workers: 1})
	leak := testutil.LeakCheck(t)
	if err := faultinject.Arm("ptas.probe", faultinject.Spec{Mode: faultinject.ModeError, Msg: "chaos", Hits: 1}); err != nil {
		t.Fatal(err)
	}
	in := testInstance(16, 7)
	req := server.SolveRequest{Instance: in, Options: ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, Epsilon: 1}}
	st, out := postSolve(t, ts.URL, req, "")
	if st != http.StatusOK || out.Result == nil {
		t.Fatalf("faulted solve: HTTP %d %+v, want graceful 200", st, out)
	}
	if out.Result.LowerBound != nil {
		two := new(big.Rat).Mul(big.NewRat(2, 1), out.Result.LowerBound)
		if out.Result.Makespan.Cmp(two) > 0 {
			t.Fatalf("fallback makespan %s > 2x lower bound %s", out.Result.Makespan.RatString(), out.Result.LowerBound.RatString())
		}
	}
	leak()
}
