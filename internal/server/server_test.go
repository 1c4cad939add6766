package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"math/big"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ccsched"
	"ccsched/internal/server"
	"ccsched/internal/testutil"
)

// gatedSolver is an instrumented SolveFunc: it counts invocations, signals
// each start, and blocks until released (or its context ends), so tests can
// hold solves in flight deterministically.
type gatedSolver struct {
	calls    atomic.Int64
	started  chan struct{} // one token per solve start
	release  chan struct{} // close to finish all in-flight and future solves
	canceled chan error    // receives the ctx error of each canceled solve
}

func newGatedSolver() *gatedSolver {
	return &gatedSolver{
		started:  make(chan struct{}, 64),
		release:  make(chan struct{}),
		canceled: make(chan error, 64),
	}
}

func (g *gatedSolver) solve(ctx context.Context, in *ccsched.Instance, opts ccsched.Options) (*ccsched.Result, error) {
	g.calls.Add(1)
	g.started <- struct{}{}
	select {
	case <-g.release:
		assign := make([]int64, in.N())
		return &ccsched.Result{
			Variant:       opts.Variant,
			Tier:          ccsched.TierApprox,
			Makespan:      new(big.Rat).SetInt64(in.TotalLoad()),
			LowerBound:    new(big.Rat).SetInt64(1),
			NonPreemptive: &ccsched.NonPreemptiveSchedule{Assign: assign},
		}, nil
	case <-ctx.Done():
		g.canceled <- ctx.Err()
		return nil, fmt.Errorf("%w: %w", ccsched.ErrCanceled, ctx.Err())
	}
}

// awaitStart fails the test if no solve starts within the deadline.
func (g *gatedSolver) awaitStart(t *testing.T) {
	t.Helper()
	select {
	case <-g.started:
	case <-time.After(10 * time.Second):
		t.Fatal("no solve started in 10s")
	}
}

// testInstance builds a small deterministic instance; distinct salts give
// instances with distinct canonical forms.
func testInstance(n int, salt int64) *ccsched.Instance {
	in := &ccsched.Instance{M: 4, Slots: 2}
	for j := 0; j < n; j++ {
		in.P = append(in.P, 1+(int64(j)*7+salt*13)%29+salt)
		in.Class = append(in.Class, j%5)
	}
	return in
}

// shuffle returns a job-order permutation of in (same canonical form).
func shuffle(in *ccsched.Instance, seed int64) *ccsched.Instance {
	rng := rand.New(rand.NewSource(seed))
	out := &ccsched.Instance{M: in.M, Slots: in.Slots}
	for _, j := range rng.Perm(in.N()) {
		out.P = append(out.P, in.P[j])
		out.Class = append(out.Class, in.Class[j])
	}
	return out
}

// startServer wires a Server to an httptest listener and tears both down in
// order (drain, then close the listener).
func startServer(t *testing.T, cfg server.Config) (*server.Server, *httptest.Server) {
	t.Helper()
	s := server.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

// testLogger routes a server's structured logs into the test log.
func testLogger(t *testing.T) *slog.Logger {
	return slog.New(slog.NewTextHandler(testLogWriter{t}, nil))
}

// testLogWriter writes each log line to t.Log.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// postSolve submits one instance and decodes the response. Failures are
// reported with t.Error (not Fatal) so it is safe to call from the client
// goroutines the tests spawn.
func postSolve(t *testing.T, url string, req server.SolveRequest, query string) (int, server.SolveResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Error(err)
		return 0, server.SolveResponse{}
	}
	resp, err := http.Post(url+"/v1/solve"+query, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, server.SolveResponse{}
	}
	defer resp.Body.Close()
	var out server.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Errorf("decoding response (HTTP %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// waitMetrics polls the server until cond holds or the deadline passes.
func waitMetrics(t *testing.T, s *server.Server, what string, cond func(server.MetricsSnapshot) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond(s.Metrics()) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("metrics never satisfied: %s (now %+v)", what, s.Metrics())
}

// TestCoalescingSingleSolve is the satellite coverage requirement: two
// clients submit the same instance (one job-shuffled) concurrently and the
// instrumented solver proves exactly one underlying solve ran.
func TestCoalescingSingleSolve(t *testing.T) {
	g := newGatedSolver()
	s, ts := startServer(t, server.Config{Workers: 2, Solver: g.solve})
	in := testInstance(20, 1)
	req1 := server.SolveRequest{Instance: in, Options: ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox}}
	req2 := server.SolveRequest{Instance: shuffle(in, 42), Options: req1.Options}

	type reply struct {
		status int
		resp   server.SolveResponse
	}
	replies := make(chan reply, 2)
	go func() {
		st, r := postSolve(t, ts.URL, req1, "")
		replies <- reply{st, r}
	}()
	g.awaitStart(t) // first request is solving
	go func() {
		st, r := postSolve(t, ts.URL, req2, "")
		replies <- reply{st, r}
	}()
	// The second submission must coalesce, not start a second solve.
	waitMetrics(t, s, "coalesced==1", func(m server.MetricsSnapshot) bool { return m.CoalescedHitsTotal == 1 })
	close(g.release)

	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK || r.resp.Status != server.StatusDone {
			t.Fatalf("reply %d: HTTP %d %+v", i, r.status, r.resp)
		}
		if r.resp.Result.Makespan.Cmp(new(big.Rat).SetInt64(in.TotalLoad())) != 0 {
			t.Fatalf("reply %d: wrong makespan %s", i, r.resp.Result.Makespan)
		}
	}
	if n := g.calls.Load(); n != 1 {
		t.Fatalf("%d solver invocations, want exactly 1", n)
	}
	m := s.Metrics()
	if m.AdmittedTotal != 1 || m.SolvesTotal != 1 || m.CoalescedHitsTotal != 1 {
		t.Fatalf("metrics %+v: want admitted=1 solves=1 coalesced=1", m)
	}
}

// TestResultCacheHit checks a later identical submission is served from the
// full-result LRU without a second solve.
func TestResultCacheHit(t *testing.T) {
	g := newGatedSolver()
	close(g.release) // solves return immediately
	s, ts := startServer(t, server.Config{Workers: 2, Solver: g.solve})
	in := testInstance(16, 2)
	opts := ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox}

	if st, r := postSolve(t, ts.URL, server.SolveRequest{Instance: in, Options: opts}, ""); st != http.StatusOK || r.Cached {
		t.Fatalf("first: HTTP %d cached=%v", st, r.Cached)
	}
	st, r := postSolve(t, ts.URL, server.SolveRequest{Instance: shuffle(in, 7), Options: opts}, "")
	if st != http.StatusOK || !r.Cached {
		t.Fatalf("second: HTTP %d cached=%v, want cache hit", st, r.Cached)
	}
	if g.calls.Load() != 1 {
		t.Fatalf("%d solver invocations, want 1", g.calls.Load())
	}
	if m := s.Metrics(); m.ResultCacheHitsTotal != 1 {
		t.Fatalf("result cache hits %d, want 1", m.ResultCacheHitsTotal)
	}
	// Bodies carrying the removed engine_parallelism, no_warm_start and
	// parallelism options still decode (unknown fields are ignored) and
	// answer from the same cache entry.
	body, err := json.Marshal(server.SolveRequest{Instance: in, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	for i, field := range []string{`"engine_parallelism":2`, `"no_warm_start":true`, `"parallelism":2`} {
		legacy := bytes.Replace(body, []byte(`"options":{`), []byte(`"options":{`+field+`,`), 1)
		if bytes.Equal(legacy, body) {
			t.Fatalf("request body has no options object: %s", body)
		}
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json", bytes.NewReader(legacy))
		if err != nil {
			t.Fatal(err)
		}
		var legacyResp server.SolveResponse
		err = json.NewDecoder(resp.Body).Decode(&legacyResp)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("%s body: decoding response (HTTP %d): %v", field, resp.StatusCode, err)
		}
		if resp.StatusCode != http.StatusOK || !legacyResp.Cached {
			t.Fatalf("%s body: HTTP %d cached=%v, want cache hit", field, resp.StatusCode, legacyResp.Cached)
		}
		if m := s.Metrics(); m.ResultCacheHitsTotal != int64(2+i) || g.calls.Load() != 1 {
			t.Fatalf("%s body: result cache hits %d, solver invocations %d; want %d and 1",
				field, m.ResultCacheHitsTotal, g.calls.Load(), 2+i)
		}
	}
}

// TestDuplicateDeckUnderLoad fires a 64-request deck from 16 concurrent
// clients at the real solver: 32 distinct instances, 16 job-shuffled
// duplicates placed right after their original (likely coalesced) and 16 at
// the tail (likely cached). Every request must answer 200, none may be
// refused with 429, and every duplicate must be served without a solve of
// its own, so coalesced plus cached hits total exactly 32.
func TestDuplicateDeckUnderLoad(t *testing.T) {
	s, ts := startServer(t, server.Config{Workers: 2})
	const clients, requests, uniques = 16, 64, 32
	opts := ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, Epsilon: 1}
	var deck []*ccsched.Instance
	for i := 0; i < uniques; i++ {
		in, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
			N: 100, Classes: 20, Machines: 8, Slots: 3, PMax: 100, Seed: 1 + int64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		deck = append(deck, in)
		if i < (requests-uniques)/2 {
			deck = append(deck, shuffle(in, int64(i)))
		}
	}
	for i := 0; len(deck) < requests; i++ {
		deck = append(deck, shuffle(deck[2*i], int64(uniques+i)))
	}

	var cursor atomic.Int64
	statuses := make([]int, len(deck))
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := int(cursor.Add(1)) - 1; i < len(deck); i = int(cursor.Add(1)) - 1 {
				statuses[i], _ = postSolve(t, ts.URL, server.SolveRequest{Instance: deck[i], Options: opts, TimeoutMs: 60000}, "")
			}
		}()
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Errorf("request %d: HTTP %d, want 200", i, st)
		}
	}
	m := s.Metrics()
	if m.RejectedQueueFullTotal != 0 {
		t.Errorf("%d requests refused with 429, want 0", m.RejectedQueueFullTotal)
	}
	if hits := m.ResultCacheHitsTotal + m.CoalescedHitsTotal; hits != requests-uniques {
		t.Errorf("result cache hits %d + coalesced hits %d = %d, want %d",
			m.ResultCacheHitsTotal, m.CoalescedHitsTotal, hits, requests-uniques)
	}
}

// TestQueueOverflow checks admission control: with one busy worker and a
// one-slot queue, a third distinct submission is refused with 429.
func TestQueueOverflow(t *testing.T) {
	g := newGatedSolver()
	s, ts := startServer(t, server.Config{Workers: 1, QueueDepth: 1, Solver: g.solve})
	opts := ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox}

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

	st, r := postSolve(t, ts.URL, server.SolveRequest{Instance: testInstance(10, 3), Options: opts}, "")
	if st != http.StatusTooManyRequests {
		t.Fatalf("third submission: HTTP %d %+v, want 429", st, r)
	}
	close(g.release)
	for i := 0; i < 2; i++ {
		if st := <-replies; st != http.StatusOK {
			t.Fatalf("queued submission %d: HTTP %d", i, st)
		}
	}
	if m := s.Metrics(); m.RejectedQueueFullTotal != 1 {
		t.Fatalf("rejected %d, want 1", m.RejectedQueueFullTotal)
	}
}

// TestDeadlinePropagation checks the request's timeout_ms becomes the Solve
// context deadline and maps to HTTP 408, and that the timed-out verdict is
// not cached.
func TestDeadlinePropagation(t *testing.T) {
	g := newGatedSolver() // never released before the deadline
	s, ts := startServer(t, server.Config{Workers: 1, Solver: g.solve})
	in := testInstance(12, 4)
	opts := ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox}

	st, r := postSolve(t, ts.URL, server.SolveRequest{Instance: in, Options: opts, TimeoutMs: 50}, "")
	if st != http.StatusRequestTimeout || r.Status != server.StatusError {
		t.Fatalf("HTTP %d %+v, want 408/error", st, r)
	}
	if !strings.Contains(r.Error, "canceled") && !strings.Contains(r.Error, "deadline") {
		t.Fatalf("error %q does not mention cancellation", r.Error)
	}
	select {
	case err := <-g.canceled:
		if err != context.DeadlineExceeded {
			t.Fatalf("solver saw %v, want DeadlineExceeded", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("solver context never expired")
	}
	if m := s.Metrics(); m.SolveCanceledTotal != 1 {
		t.Fatalf("canceled count %d, want 1", m.SolveCanceledTotal)
	}
	// Cancellations must not poison the result cache: resubmitting with a
	// workable deadline runs a fresh solve.
	close(g.release)
	st, r = postSolve(t, ts.URL, server.SolveRequest{Instance: in, Options: opts}, "")
	if st != http.StatusOK || r.Cached {
		t.Fatalf("resubmission: HTTP %d cached=%v, want fresh 200", st, r.Cached)
	}
	if g.calls.Load() != 2 {
		t.Fatalf("%d solver invocations, want 2", g.calls.Load())
	}
}

// TestClientDisconnectCancels checks that when every waiter disconnects,
// the flight's Solve context is canceled so the worker slot frees up.
func TestClientDisconnectCancels(t *testing.T) {
	g := newGatedSolver()
	_, ts := startServer(t, server.Config{Workers: 1, Solver: g.solve})
	body, _ := json.Marshal(server.SolveRequest{
		Instance: testInstance(14, 5),
		Options:  ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox},
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errs <- err
	}()
	g.awaitStart(t)
	cancel() // the only client goes away
	select {
	case err := <-g.canceled:
		if err != context.Canceled {
			t.Fatalf("solver saw %v, want Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("solve context not canceled after client disconnect")
	}
	if err := <-errs; err == nil {
		t.Fatal("client request unexpectedly succeeded")
	}
}

// TestAsyncSubmitAndPoll checks wait=0 submission returns 202 immediately,
// the flight survives having no waiter (pinned), and a later poll with wait
// returns the finished result.
func TestAsyncSubmitAndPoll(t *testing.T) {
	g := newGatedSolver()
	_, ts := startServer(t, server.Config{Workers: 1, Solver: g.solve})
	st, r := postSolve(t, ts.URL, server.SolveRequest{
		Instance: testInstance(10, 6),
		Options:  ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox},
	}, "?wait=0")
	if st != http.StatusAccepted || r.ID == "" {
		t.Fatalf("async submit: HTTP %d %+v, want 202 with id", st, r)
	}
	g.awaitStart(t)
	// No waiter is attached; the flight must keep running (not cancel).
	select {
	case err := <-g.canceled:
		t.Fatalf("pinned async flight canceled: %v", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(g.release)
	resp, err := http.Get(ts.URL + "/v1/jobs/" + r.ID + "?wait=10s")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out server.SolveResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || out.Status != server.StatusDone || out.Result == nil {
		t.Fatalf("poll: HTTP %d %+v, want done with result", resp.StatusCode, out)
	}
	if resp, err := http.Get(ts.URL + "/v1/jobs/nonexistent"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown job: HTTP %d, want 404", resp.StatusCode)
		}
	}
}

// TestShutdownDrains checks graceful shutdown: admission closes with 503,
// queued work still completes, clients receive their results, and the
// worker goroutines exit.
func TestShutdownDrains(t *testing.T) {
	g := newGatedSolver()
	s := server.New(server.Config{Workers: 1, Solver: g.solve})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	opts := ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox}
	// Baseline the goroutine count with the listener and a warm keepalive
	// connection already up, so the later comparison isolates the pipeline's
	// own goroutines (workers + waiters).
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	leak := testutil.LeakCheck(t)

	replies := make(chan int, 2)
	go func() {
		st, _ := postSolve(t, ts.URL, server.SolveRequest{Instance: testInstance(10, 1), Options: opts}, "")
		replies <- st
	}()
	g.awaitStart(t)
	go func() {
		st, _ := postSolve(t, ts.URL, server.SolveRequest{Instance: testInstance(10, 2), Options: opts}, "")
		replies <- st
	}()
	waitMetrics(t, s, "second request queued", func(m server.MetricsSnapshot) bool { return m.QueueDepth == 1 })

	shutdownErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		shutdownErr <- s.Shutdown(ctx)
	}()
	// Liveness stays 200 while draining; readiness is what flips to 503.
	waitMetrics(t, s, "draining", func(m server.MetricsSnapshot) bool {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	if st, _ := postSolve(t, ts.URL, server.SolveRequest{Instance: testInstance(10, 3), Options: opts}, ""); st != http.StatusServiceUnavailable {
		t.Fatalf("post-shutdown submission: HTTP %d, want 503", st)
	}
	close(g.release) // let the drain finish
	if err := <-shutdownErr; err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}
	for i := 0; i < 2; i++ {
		if st := <-replies; st != http.StatusOK {
			t.Fatalf("drained request %d: HTTP %d, want 200", i, st)
		}
	}
	// The worker pool and every waiter must be gone; the shared checker
	// drops idle keepalive connections while it retries.
	leak()
}

// TestShutdownForceCancelsInFlight checks the drain deadline: when the
// grace context expires, in-flight solves are canceled via context and
// Shutdown still returns (with the context's error).
func TestShutdownForceCancelsInFlight(t *testing.T) {
	g := newGatedSolver() // never released: the solve only ends by cancellation
	s := server.New(server.Config{Workers: 1, Solver: g.solve})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	go postSolve(t, ts.URL, server.SolveRequest{
		Instance: testInstance(10, 9),
		Options:  ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox},
	}, "")
	g.awaitStart(t)
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err != context.DeadlineExceeded {
		t.Fatalf("forced shutdown returned %v, want DeadlineExceeded", err)
	}
	select {
	case <-g.canceled:
	default:
		t.Fatal("in-flight solve was not canceled by the forced shutdown")
	}
}

// TestEndToEndRealSolver drives the full pipeline with the real
// ccsched.Solve: duplicate scrambled submissions dedup, and each response's
// schedule validates against that submitter's own instance.
func TestEndToEndRealSolver(t *testing.T) {
	s, ts := startServer(t, server.Config{Workers: 2})
	in, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
		N: 24, Classes: 6, Machines: 4, Slots: 2, PMax: 40, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox}
	st1, r1 := postSolve(t, ts.URL, server.SolveRequest{Instance: in, Options: opts}, "")
	dup := shuffle(in, 99)
	st2, r2 := postSolve(t, ts.URL, server.SolveRequest{Instance: dup, Options: opts}, "")
	if st1 != http.StatusOK || st2 != http.StatusOK {
		t.Fatalf("HTTP %d / %d", st1, st2)
	}
	if !r2.Cached && !r2.Coalesced {
		t.Fatalf("duplicate was neither cached nor coalesced: %+v", r2)
	}
	if r1.Result.Makespan.Cmp(r2.Result.Makespan) != 0 {
		t.Fatalf("duplicate makespans differ: %s vs %s", r1.Result.Makespan, r2.Result.Makespan)
	}
	if err := r1.Result.NonPreemptive.Validate(in); err != nil {
		t.Fatalf("first schedule invalid for its instance: %v", err)
	}
	if err := r2.Result.NonPreemptive.Validate(dup); err != nil {
		t.Fatalf("remapped duplicate schedule invalid for its instance: %v", err)
	}
	m := s.Metrics()
	if m.SolvesTotal != 1 {
		t.Fatalf("%d solves for 2 identical requests, want 1", m.SolvesTotal)
	}
	if m.SolveLatency.Count != 1 || m.SolveLatency.Buckets[len(m.SolveLatency.Buckets)-1].Count != 1 {
		t.Fatalf("latency histogram %+v, want one observation", m.SolveLatency)
	}
}

// TestMalformedWaitRejected checks ?wait= values that are neither a
// duration nor bare milliseconds get a 400 instead of being misread.
func TestMalformedWaitRejected(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1})
	st, _ := postSolve(t, ts.URL, server.SolveRequest{
		Instance: testInstance(8, 1),
		Options:  ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox},
	}, "?wait=30m5")
	if st != http.StatusBadRequest {
		t.Fatalf("wait=30m5: HTTP %d, want 400", st)
	}
}

// TestMetricsAndHealthEndpoints checks both read-only endpoints decode and
// carry the configured gauges.
func TestMetricsAndHealthEndpoints(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 3, QueueDepth: 17})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Workers != 3 || m.QueueCapacity != 17 {
		t.Fatalf("metrics gauges %+v, want workers=3 cap=17", m)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h server.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || h.Status != "ok" || h.Workers != 3 {
		t.Fatalf("healthz: HTTP %d %+v", resp.StatusCode, h)
	}
}
