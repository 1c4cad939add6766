// Command ccload drives a running ccserved with concurrent clients and
// records throughput, latency percentiles and the server's coalescing and
// cache counters into a JSON report (BENCH_PR3.json is an archived run).
//
// A -dup fraction of the requests are duplicates of earlier instances with
// their job lists shuffled — the canonical form is identical, so the server
// must answer them by singleflight coalescing (duplicate placed right after
// its original in the deck, likely still in flight) or from the result
// cache (duplicate placed at the tail, after its original finished).
//
// With -churn > 0 ccload instead exercises the incremental session API:
// it creates one /v1/sessions session and, for -rounds rounds, mutates a
// -churn fraction of the jobs (resizes of up to ±-churn-resize-pct percent)
// with PATCH and records the per-round re-solve latencies plus the server's
// session counters, which ccserved labels separately from one-shot solves.
// -verify additionally re-solves every round's instance cold in-process and
// fails unless the session makespans are bit-identical.
//
// With -watch ccload exercises the anytime tier: it creates one TierAnytime
// session (instant 2-approx answer), consumes the GET /v1/sessions/{id}/watch
// SSE stream to the terminal rung, and fails unless the stream carries at
// least two events with strictly increasing generations and monotone
// non-increasing optimality gaps. The report records time-to-first-answer and
// time-to-gap≤10% — the anytime tier's two serving latencies. -verify
// additionally solves the instance cold at the terminal ε in-process and
// requires the final streamed makespan to be bit-identical.
//
// Either mode ends by printing the run's queue-wait p50/p99 to stderr,
// read off the server's queue_wait_latency histogram deltas — the early
// saturation signal: queue wait grows before solve latency does when the
// worker pool is undersized.
//
// -retries N retries session-mode requests (and /metrics reads) up to N
// times on 429, 503 and transport errors with exponential backoff plus
// jitter — the knob that lets a churn run ride out a server restart. The
// classic deck mode never retries: its 429s are the measurement.
//
// With -kill9 (session mode, requires -server-cmd so ccload owns the server
// process) the run becomes a crash-recovery proof: at -kill9-round the
// server is killed with SIGKILL mid-churn, restarted, and the session must
// come back from its snapshot — ccload re-syncs the instance with one
// repair PATCH and fails unless the re-solve's makespan is bit-identical to
// the pre-kill round and answered warm from the restored cache
// (report.cache_hits > 0, snapshot_restores_total >= 1).
//
// Usage:
//
//	ccload -url http://localhost:8080 -clients 64 -requests 256 -dup 0.5 \
//	       -family uniform -n 200 -variant splittable -tier approx -out BENCH_PR3.json
//	ccload -url http://localhost:8080 -churn 0.05 -rounds 20 \
//	       -family uniform -n 1000 -tier ptas -eps 1 -verify -out churn.json
//	ccload -url http://localhost:8081 -churn 0.05 -rounds 10 -verify -retries 8 \
//	       -kill9 -server-cmd "./ccserved -addr :8081 -state-dir /tmp/ccstate -checkpoint 200ms"
//	ccload -url http://localhost:8080 -watch -family uniform -n 1000 -eps 0.5 \
//	       -verify -out watch.json
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccsched"
	"ccsched/internal/server"
)

// report is the JSON document ccload writes.
type report struct {
	Label      string         `json:"label,omitempty"`
	Config     runConfig      `json:"config"`
	WallS      float64        `json:"wall_s"`
	Throughput float64        `json:"throughput_rps"`
	Totals     totals         `json:"totals"`
	LatencyMs  latencySummary `json:"latency_ms"`
	Server     serverDeltas   `json:"server_deltas"`
	// Session is populated by -churn runs only.
	Session *sessionReport `json:"session,omitempty"`
	// Watch is populated by -watch runs only.
	Watch *watchReport `json:"watch,omitempty"`
}

// watchReport summarizes a -watch run: the anytime tier's serving latencies
// and the refinement stream's shape.
type watchReport struct {
	// Events is the number of SSE events to the terminal rung (first answer
	// included); the contract guarantees at least two.
	Events int `json:"events"`
	// FirstAnswerMs is the create's inline 2-approx latency — the anytime
	// tier's time-to-first-answer.
	FirstAnswerMs float64 `json:"first_answer_ms"`
	// FirstGap and FinalGap bracket the stream's certified optimality gaps.
	FirstGap float64 `json:"first_gap"`
	FinalGap float64 `json:"final_gap"`
	// TimeToGap10Ms is when the first event with gap <= 10% arrived, counted
	// from the create (0 when the stream never got there).
	TimeToGap10Ms float64 `json:"time_to_gap10_ms,omitempty"`
	// FinalMs is when the terminal rung arrived, counted from the create.
	FinalMs float64 `json:"final_ms"`
	// MonotoneGap reports every event's gap was <= its predecessor's.
	MonotoneGap bool `json:"monotone_gap"`
	// RefinementRungs is the server's refinement_rungs_total delta.
	RefinementRungs int64 `json:"refinement_rungs"`
	// Verified reports the -verify cold solve matched bit-identically.
	Verified bool `json:"verified_bit_identical,omitempty"`
}

// sessionReport summarizes a -churn run: per-round PATCH latencies and the
// session-labeled server counters, so incremental re-solves are
// attributable separately from one-shot solves.
type sessionReport struct {
	Rounds          int            `json:"rounds"`
	ChurnFraction   float64        `json:"churn_fraction"`
	ResizePct       float64        `json:"resize_pct"`
	RoundLatencyMs  latencySummary `json:"round_latency_ms"`
	SolveMsMean     float64        `json:"solve_ms_mean"`
	SessionResolves int64          `json:"session_resolves"`
	SessionSolveMs  float64        `json:"session_solve_ms_total"`
	CacheHits       int64          `json:"result_cache_hits"`
	Verified        bool           `json:"verified_bit_identical,omitempty"`
	// Kill9/KillRound record that the run killed and restarted the server
	// mid-churn; RestoredWarm reports the post-restart re-solve answered its
	// probes from the restored cache, and SnapshotRestores is the restarted
	// server's snapshot_restores_total.
	Kill9            bool  `json:"kill9,omitempty"`
	KillRound        int   `json:"kill_round,omitempty"`
	RestoredWarm     bool  `json:"restored_warm,omitempty"`
	SnapshotRestores int64 `json:"snapshot_restores,omitempty"`
}

// runConfig echoes the generator and client parameters of the run.
type runConfig struct {
	URL       string  `json:"url"`
	Clients   int     `json:"clients"`
	Requests  int     `json:"requests"`
	DupFrac   float64 `json:"dup_fraction"`
	Family    string  `json:"family"`
	N         int     `json:"n"`
	Classes   int     `json:"classes"`
	Machines  int64   `json:"machines"`
	Slots     int     `json:"slots"`
	PMax      int64   `json:"pmax"`
	Seed      int64   `json:"seed"`
	Variant   string  `json:"variant"`
	Tier      string  `json:"tier"`
	Epsilon   float64 `json:"epsilon,omitempty"`
	TimeoutMs int64   `json:"timeout_ms,omitempty"`
}

// totals counts request outcomes.
type totals struct {
	OK        int64         `json:"ok"`
	Coalesced int64         `json:"coalesced"`
	Cached    int64         `json:"cached"`
	Dropped   int64         `json:"dropped_429"`
	Errors    int64         `json:"errors"`
	ByStatus  map[int]int64 `json:"by_status"`
}

// latencySummary holds client-observed latency percentiles over the
// successful requests (drops and errors return fast and would skew them).
type latencySummary struct {
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// serverDeltas is the change in the server's counters across the run.
type serverDeltas struct {
	Admitted              int64 `json:"admitted"`
	Solves                int64 `json:"solves"`
	CoalescedHits         int64 `json:"coalesced_hits"`
	ResultCacheHits       int64 `json:"result_cache_hits"`
	RejectedQueueFull     int64 `json:"rejected_queue_full"`
	SolveErrors           int64 `json:"solve_errors"`
	FeasibilityCacheHits  int64 `json:"feasibility_cache_hits"`
	FeasibilityCacheMiss  int64 `json:"feasibility_cache_misses"`
	ResultCacheEntriesNow int   `json:"result_cache_entries_now"`
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ccload:", err)
	os.Exit(1)
}

// churnConfig parameterizes one -churn session run.
type churnConfig struct {
	url               string
	family            string
	n, classes, slots int
	m                 int64
	pmax, seed        int64
	opts              ccsched.Options
	churn, resizePct  float64
	rounds            int
	verify            bool
	timeoutMs         int64
	wait              time.Duration
	out, label        string
	cfg               runConfig
	retries           int
	kill9             bool
	serverCmd         string
	kill9Round        int
	kill9Wait         time.Duration
}

// backoff returns the sleep before retry attempt (0-based): 50ms doubling
// per attempt, capped at 2s, plus up to 50% jitter so retriers desynchronize.
func backoff(attempt int) time.Duration {
	d := 50 * time.Millisecond << uint(attempt)
	if d > 2*time.Second {
		d = 2 * time.Second
	}
	return d + time.Duration(rand.Int63n(int64(d/2)+1))
}

// doWithRetry performs one HTTP call with up to retries retries on 429, 503
// and transport errors (connection refused during a server restart looks
// like the latter). mk builds a fresh request per attempt — bodies cannot be
// replayed from a consumed reader. The final attempt's response or error is
// returned as is. A Retry-After header on a rejection is honored in place of
// the exponential backoff — the server knows its own drain cadence better
// than a generic doubling does — capped so a confused server cannot stall
// the load generator for minutes.
func doWithRetry(client *http.Client, retries int, mk func() (*http.Request, error)) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		req, err := mk()
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if attempt >= retries {
			return resp, err
		}
		sleep := backoff(attempt)
		if err == nil {
			if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
				return resp, nil
			}
			if d, ok := parseRetryAfter(resp.Header.Get("Retry-After")); ok {
				sleep = d
			}
			resp.Body.Close()
		}
		time.Sleep(sleep)
	}
}

// maxRetryAfter caps how long a server-suggested Retry-After can hold one
// retry attempt.
const maxRetryAfter = 10 * time.Second

// parseRetryAfter reads a Retry-After header in delay-seconds form (the form
// ccserved sends; HTTP-date is not worth parsing here), capped at
// maxRetryAfter.
func parseRetryAfter(h string) (time.Duration, bool) {
	if h == "" {
		return 0, false
	}
	secs, err := strconv.ParseInt(h, 10, 64)
	if err != nil || secs < 0 {
		return 0, false
	}
	d := time.Duration(secs) * time.Second
	if d > maxRetryAfter {
		d = maxRetryAfter
	}
	return d, true
}

// sessionRequest performs one /v1/sessions call (with up to retries retries
// on 429/503/transport errors) and decodes the response.
func sessionRequest(client *http.Client, retries int, method, url string, body any) (*server.SessionResponse, error) {
	var encoded []byte
	if body != nil {
		var err error
		if encoded, err = json.Marshal(body); err != nil {
			return nil, err
		}
	}
	resp, err := doWithRetry(client, retries, func() (*http.Request, error) {
		return http.NewRequest(method, url, bytes.NewReader(encoded))
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sr server.SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, url, err)
	}
	if resp.StatusCode != http.StatusOK || sr.Status != server.StatusDone {
		return &sr, fmt.Errorf("%s %s: status %d (%s): %s", method, url, resp.StatusCode, sr.Status, sr.Error)
	}
	return &sr, nil
}

// runChurn drives the incremental session API: one session, c.rounds PATCH
// rounds each mutating c.churn of the jobs, per-round latency and the
// session-labeled server counters recorded. With c.verify every round's
// makespan is checked bit-identical against an in-process cold solve.
func runChurn(c churnConfig) {
	if c.rounds < 1 {
		fail(fmt.Errorf("-churn mode needs -rounds >= 1, got %d", c.rounds))
	}
	if c.kill9 {
		if c.serverCmd == "" {
			fail(fmt.Errorf("-kill9 needs -server-cmd (ccload must own the server process to SIGKILL it)"))
		}
		if c.kill9Round <= 0 {
			c.kill9Round = c.rounds / 2
		}
		if c.kill9Round < 1 || c.kill9Round > c.rounds {
			fail(fmt.Errorf("-kill9-round %d outside [1,%d]", c.kill9Round, c.rounds))
		}
	}
	in, err := ccsched.Generate(c.family, ccsched.GeneratorConfig{
		N: c.n, Classes: c.classes, Machines: c.m, Slots: c.slots, PMax: c.pmax, Seed: c.seed,
	})
	if err != nil {
		fail(err)
	}
	var srv *exec.Cmd
	if c.serverCmd != "" {
		if srv, err = startServerCmd(c.serverCmd); err != nil {
			fail(err)
		}
		defer func() {
			if srv != nil && srv.Process != nil {
				srv.Process.Signal(syscall.SIGTERM)
				srv.Wait()
			}
		}()
		if err := waitHealthy(c.url, 30*time.Second); err != nil {
			fail(err)
		}
	}
	client := &http.Client{Timeout: c.wait}
	before, err := fetchMetrics(c.url, c.retries)
	if err != nil {
		fail(fmt.Errorf("reading initial metrics (is ccserved running?): %w", err))
	}
	start := time.Now()
	sr, err := sessionRequest(client, c.retries, "POST", c.url+"/v1/sessions?wait="+c.wait.String(), server.SessionCreateRequest{
		Instance: in, Options: c.opts, TimeoutMs: c.timeoutMs,
	})
	if err != nil {
		fail(err)
	}
	sid := sr.SessionID
	mirror := in.Clone()
	ids := sr.JobIDs

	rng := rand.New(rand.NewSource(c.seed*7717 + 5))
	latencies := make([]time.Duration, 0, c.rounds)
	var solveMsSum float64
	verified := true
	var tot totals
	tot.ByStatus = map[int]int64{http.StatusOK: 1}
	// Cross-restart metric accounting: counters reset with the process, so a
	// kill splits the run into two windows and the final deltas are
	// (preKill - before) + (after - postBoot).
	var preKill, postBoot server.MetricsSnapshot
	killed := false
	restoredWarm := false
	var snapRestores int64
	for round := 1; round <= c.rounds; round++ {
		// Mutate churn·n jobs: resize by up to ±resizePct of the current
		// size (the steady-state "jobs re-estimate" trickle).
		k := int(c.churn * float64(len(ids)))
		if k < 1 {
			k = 1
		}
		delta := server.SessionDelta{TimeoutMs: c.timeoutMs}
		for j := 0; j < k; j++ {
			pos := rng.Intn(len(ids))
			cur := mirror.P[pos]
			span := int64(float64(cur) * c.resizePct / 100)
			next := cur + rng.Int63n(2*span+1) - span
			if next < 1 {
				next = 1
			}
			mirror.P[pos] = next
			delta.Resize = append(delta.Resize, server.SessionResize{ID: ids[pos], P: next})
		}
		reqStart := time.Now()
		pr, err := sessionRequest(client, c.retries, "PATCH", c.url+"/v1/sessions/"+sid+"?wait="+c.wait.String(), delta)
		latencies = append(latencies, time.Since(reqStart))
		if err != nil {
			fail(fmt.Errorf("round %d: %w", round, err))
		}
		tot.OK++
		tot.ByStatus[http.StatusOK]++
		if pr.Coalesced {
			tot.Coalesced++
		}
		if pr.Cached {
			tot.Cached++
		}
		solveMsSum += pr.SolveMs
		ids = pr.JobIDs
		if c.verify {
			coldOpts := c.opts
			coldOpts.Cache = ccsched.NewFeasibilityCache()
			want, err := ccsched.Solve(context.Background(), mirror, coldOpts)
			if err != nil {
				fail(fmt.Errorf("round %d: cold verify solve: %w", round, err))
			}
			if pr.Result == nil || pr.Result.Makespan.Cmp(want.Makespan) != 0 {
				verified = false
				fail(fmt.Errorf("round %d: session makespan %v != cold %s — parity broken",
					round, pr.Result.Makespan, want.Makespan.RatString()))
			}
		}
		if c.kill9 && round == c.kill9Round {
			if pr.Result == nil {
				fail(fmt.Errorf("round %d: no result to verify the crash recovery against", round))
			}
			preMakespan := pr.Result.Makespan
			// Give the background checkpointer one interval to persist the
			// round's warm state before the crash.
			time.Sleep(c.kill9Wait)
			// Export as a fallback: if the restarted server did not restore
			// the session from disk, the snapshot is PUT back — the same
			// live-migration path, pointed at the "new" server.
			snap, expErr := exportSession(client, c.url, sid, c.retries)
			if preKill, err = fetchMetrics(c.url, c.retries); err != nil {
				fail(fmt.Errorf("round %d: pre-kill metrics: %w", round, err))
			}
			fmt.Fprintf(os.Stderr, "ccload: round %d: SIGKILL to server pid %d\n", round, srv.Process.Pid)
			if err := srv.Process.Kill(); err != nil {
				fail(fmt.Errorf("round %d: kill: %w", round, err))
			}
			srv.Wait()
			if srv, err = startServerCmd(c.serverCmd); err != nil {
				fail(fmt.Errorf("round %d: restart: %w", round, err))
			}
			if err := waitHealthy(c.url, 30*time.Second); err != nil {
				fail(fmt.Errorf("round %d: restarted %w", round, err))
			}
			if postBoot, err = fetchMetrics(c.url, c.retries); err != nil {
				fail(fmt.Errorf("round %d: post-boot metrics: %w", round, err))
			}
			// Did the session survive on disk? If not, put the export back.
			if _, err := sessionRequest(client, c.retries, "GET", c.url+"/v1/sessions/"+sid+"?wait="+c.wait.String(), nil); err != nil {
				if expErr != nil {
					fail(fmt.Errorf("round %d: session lost and export failed too: %v / %v", round, err, expErr))
				}
				if err := importSession(client, c.url, sid, snap, c.retries); err != nil {
					fail(fmt.Errorf("round %d: session lost and import failed: %w", round, err))
				}
				fmt.Fprintf(os.Stderr, "ccload: round %d: session re-imported from export\n", round)
			}
			// Repair PATCH: resize every job to its mirror value. The restored
			// checkpoint may predate the last deltas; absolute resizes make
			// the server instance bit-identical to the mirror regardless, and
			// the re-solve must then reproduce the pre-kill makespan from the
			// restored warm state.
			repair := server.SessionDelta{TimeoutMs: c.timeoutMs}
			for pos := range ids {
				repair.Resize = append(repair.Resize, server.SessionResize{ID: ids[pos], P: mirror.P[pos]})
			}
			rr, err := sessionRequest(client, c.retries, "PATCH", c.url+"/v1/sessions/"+sid+"?wait="+c.wait.String(), repair)
			if err != nil {
				fail(fmt.Errorf("round %d: repair re-solve: %w", round, err))
			}
			if rr.Result == nil || rr.Result.Makespan.Cmp(preMakespan) != 0 {
				fail(fmt.Errorf("round %d: post-restart makespan %v != pre-kill %s — recovery broke the verdict",
					round, rr.Result, preMakespan.RatString()))
			}
			restoredWarm = rr.Result.Report.CacheHits > 0
			if !restoredWarm {
				fail(fmt.Errorf("round %d: post-restart re-solve ran fully cold (report %+v) — warm state not restored",
					round, rr.Result.Report))
			}
			m, err := fetchMetrics(c.url, c.retries)
			if err != nil {
				fail(err)
			}
			snapRestores = m.SnapshotRestoresTotal
			if snapRestores < 1 {
				fail(fmt.Errorf("round %d: snapshot_restores_total = %d after restart, want >= 1", round, snapRestores))
			}
			killed = true
			fmt.Fprintf(os.Stderr, "ccload: round %d: recovery verified (makespan bit-identical, cache_hits=%d, snapshot_restores=%d)\n",
				round, rr.Result.Report.CacheHits, snapRestores)
		}
	}
	wall := time.Since(start)
	after, err := fetchMetrics(c.url, c.retries)
	if err != nil {
		fail(err)
	}
	if killed {
		// Fold the pre-kill window into the post-boot counters.
		after.AdmittedTotal += preKill.AdmittedTotal - before.AdmittedTotal
		after.SolvesTotal += preKill.SolvesTotal - before.SolvesTotal
		after.CoalescedHitsTotal += preKill.CoalescedHitsTotal - before.CoalescedHitsTotal
		after.ResultCacheHitsTotal += preKill.ResultCacheHitsTotal - before.ResultCacheHitsTotal
		after.RejectedQueueFullTotal += preKill.RejectedQueueFullTotal - before.RejectedQueueFullTotal
		after.SolveErrorsTotal += preKill.SolveErrorsTotal - before.SolveErrorsTotal
		after.SessionResolvesTotal += preKill.SessionResolvesTotal - before.SessionResolvesTotal
		after.SessionSolveLatency.SumMs += preKill.SessionSolveLatency.SumMs - before.SessionSolveLatency.SumMs
		after.FeasibilityCache.Hits += preKill.FeasibilityCache.Hits - before.FeasibilityCache.Hits
		after.FeasibilityCache.Misses += preKill.FeasibilityCache.Misses - before.FeasibilityCache.Misses
		before = postBoot
	}
	// Histogram deltas can't be folded across the restart, so after a kill
	// this covers the post-boot window only.
	printQueueWait(before, after)
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	pct := func(p float64) float64 {
		return float64(latencies[int(p*float64(len(latencies)-1))]) / float64(time.Millisecond)
	}
	var sum time.Duration
	for _, d := range latencies {
		sum += d
	}
	roundLatency := latencySummary{
		P50: pct(0.50), P90: pct(0.90), P99: pct(0.99),
		Max:  float64(latencies[len(latencies)-1]) / float64(time.Millisecond),
		Mean: float64(sum) / float64(len(latencies)) / float64(time.Millisecond),
	}
	rep := report{
		Label:      c.label,
		Config:     c.cfg,
		WallS:      wall.Seconds(),
		Throughput: float64(c.rounds) / wall.Seconds(),
		Totals:     tot,
		LatencyMs:  roundLatency,
		Server: serverDeltas{
			Admitted:              after.AdmittedTotal - before.AdmittedTotal,
			Solves:                after.SolvesTotal - before.SolvesTotal,
			CoalescedHits:         after.CoalescedHitsTotal - before.CoalescedHitsTotal,
			ResultCacheHits:       after.ResultCacheHitsTotal - before.ResultCacheHitsTotal,
			RejectedQueueFull:     after.RejectedQueueFullTotal - before.RejectedQueueFullTotal,
			SolveErrors:           after.SolveErrorsTotal - before.SolveErrorsTotal,
			FeasibilityCacheHits:  after.FeasibilityCache.Hits - before.FeasibilityCache.Hits,
			FeasibilityCacheMiss:  after.FeasibilityCache.Misses - before.FeasibilityCache.Misses,
			ResultCacheEntriesNow: after.ResultCacheEntries,
		},
		Session: &sessionReport{
			Rounds:          c.rounds,
			ChurnFraction:   c.churn,
			ResizePct:       c.resizePct,
			RoundLatencyMs:  roundLatency,
			SolveMsMean:     solveMsSum / float64(c.rounds),
			SessionResolves: after.SessionResolvesTotal - before.SessionResolvesTotal,
			SessionSolveMs:  after.SessionSolveLatency.SumMs - before.SessionSolveLatency.SumMs,
			CacheHits:       after.ResultCacheHitsTotal - before.ResultCacheHitsTotal,
			Verified:        c.verify && verified,
			Kill9:           killed,
			KillRound: func() int {
				if killed {
					return c.kill9Round
				}
				return 0
			}(),
			RestoredWarm:     restoredWarm,
			SnapshotRestores: snapRestores,
		},
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if c.out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(c.out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("ccload: session churn %d rounds in %.2fs (mean %.1fms/round, %d session re-solves, verified=%v) → %s\n",
		c.rounds, wall.Seconds(), rep.LatencyMs.Mean, rep.Session.SessionResolves, rep.Session.Verified, c.out)
}

// watchConfig parameterizes one -watch anytime run.
type watchConfig struct {
	url               string
	family            string
	n, classes, slots int
	m                 int64
	pmax, seed        int64
	opts              ccsched.Options
	verify            bool
	timeoutMs         int64
	wait              time.Duration
	out, label        string
	retries           int
	cfg               runConfig
}

// runWatch drives the anytime tier: one TierAnytime session, its /watch SSE
// stream consumed to the terminal rung, the stream contract asserted (>= 2
// events, strictly increasing generations, monotone non-increasing gaps) and
// the serving latencies recorded.
func runWatch(c watchConfig) {
	in, err := ccsched.Generate(c.family, ccsched.GeneratorConfig{
		N: c.n, Classes: c.classes, Machines: c.m, Slots: c.slots, PMax: c.pmax, Seed: c.seed,
	})
	if err != nil {
		fail(err)
	}
	c.opts.Tier = ccsched.TierAnytime
	client := &http.Client{Timeout: c.wait}
	before, err := fetchMetrics(c.url, c.retries)
	if err != nil {
		fail(fmt.Errorf("reading initial metrics (is ccserved running?): %w", err))
	}
	start := time.Now()
	sr, err := sessionRequest(client, c.retries, "POST", c.url+"/v1/sessions", server.SessionCreateRequest{
		Instance: in, Options: c.opts, TimeoutMs: c.timeoutMs,
	})
	if err != nil {
		fail(err)
	}
	firstAnswer := time.Since(start)
	if sr.Result == nil || sr.Result.Anytime == nil || sr.Result.Anytime.Rung != 0 {
		fail(fmt.Errorf("create answered without a rung-0 anytime result: %+v", sr.Result))
	}

	// Stream to the terminal rung. The SSE connection outlives any sane
	// per-request timeout, so it gets its own unbounded client with the wait
	// budget enforced by a context deadline instead.
	ctx, cancel := context.WithTimeout(context.Background(), c.wait)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", c.url+"/v1/sessions/"+sr.SessionID+"/watch", nil)
	if err != nil {
		fail(err)
	}
	resp, err := (&http.Client{}).Do(req)
	if err != nil {
		fail(fmt.Errorf("opening watch stream: %w", err))
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail(fmt.Errorf("watch stream: status %d", resp.StatusCode))
	}
	var (
		events   []server.WatchEvent
		final    *server.WatchEvent
		timeTo10 time.Duration
		finalAt  time.Duration
		monotone = true
		lastGen  uint64
		sc       = bufio.NewScanner(resp.Body)
	)
	sc.Buffer(make([]byte, 1<<20), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev server.WatchEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			fail(fmt.Errorf("decoding watch event: %w", err))
		}
		if ev.Generation <= lastGen {
			fail(fmt.Errorf("watch generation %d did not increase past %d", ev.Generation, lastGen))
		}
		lastGen = ev.Generation
		if len(events) > 0 && ev.Gap > events[len(events)-1].Gap+1e-9 {
			monotone = false
		}
		if timeTo10 == 0 && ev.Gap <= 0.10 {
			timeTo10 = time.Since(start)
		}
		events = append(events, ev)
		if ev.Final {
			final = &events[len(events)-1]
			finalAt = time.Since(start)
			break
		}
	}
	if final == nil {
		fail(fmt.Errorf("watch stream ended without a final event after %d events: %v", len(events), sc.Err()))
	}
	if len(events) < 2 {
		fail(fmt.Errorf("watch stream carried %d events, want >= 2 (first answer + terminal rung)", len(events)))
	}
	if !monotone {
		fail(fmt.Errorf("watch gaps are not monotone non-increasing: %+v", gaps(events)))
	}

	verified := false
	if c.verify {
		coldOpts := c.opts
		coldOpts.Tier = ccsched.TierPTAS
		coldOpts.Cache = ccsched.NewFeasibilityCache()
		want, err := ccsched.Solve(context.Background(), in, coldOpts)
		if err != nil {
			fail(fmt.Errorf("cold verify solve: %w", err))
		}
		if final.Makespan != want.Makespan.RatString() {
			fail(fmt.Errorf("final anytime makespan %s != cold TierPTAS(ε=%g) %s — parity broken",
				final.Makespan, coldOpts.Epsilon, want.Makespan.RatString()))
		}
		verified = true
	}
	after, err := fetchMetrics(c.url, c.retries)
	if err != nil {
		fail(err)
	}
	printQueueWait(before, after)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	rep := report{
		Label:  c.label,
		Config: c.cfg,
		WallS:  finalAt.Seconds(),
		Totals: totals{OK: int64(len(events)) + 1, ByStatus: map[int]int64{http.StatusOK: int64(len(events)) + 1}},
		LatencyMs: latencySummary{
			P50: ms(firstAnswer), P90: ms(finalAt), P99: ms(finalAt),
			Max: ms(finalAt), Mean: ms(finalAt) / float64(len(events)),
		},
		Server: serverDeltas{
			Admitted:             after.AdmittedTotal - before.AdmittedTotal,
			Solves:               after.SolvesTotal - before.SolvesTotal,
			FeasibilityCacheHits: after.FeasibilityCache.Hits - before.FeasibilityCache.Hits,
			FeasibilityCacheMiss: after.FeasibilityCache.Misses - before.FeasibilityCache.Misses,
		},
		Watch: &watchReport{
			Events:          len(events),
			FirstAnswerMs:   ms(firstAnswer),
			FirstGap:        events[0].Gap,
			FinalGap:        final.Gap,
			TimeToGap10Ms:   ms(timeTo10),
			FinalMs:         ms(finalAt),
			MonotoneGap:     monotone,
			RefinementRungs: after.RefinementRungsTotal - before.RefinementRungsTotal,
			Verified:        verified,
		},
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if c.out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(c.out, data, 0o644); err != nil {
		fail(err)
	}
	gap10 := "never"
	if timeTo10 > 0 {
		gap10 = fmt.Sprintf("at %.1fms", rep.Watch.TimeToGap10Ms)
	}
	fmt.Printf("ccload: anytime watch: first answer %.1fms (gap %.3f), %d events to final %.1fms (gap %.3f), gap<=10%% %s, verified=%v → %s\n",
		rep.Watch.FirstAnswerMs, rep.Watch.FirstGap, rep.Watch.Events, rep.Watch.FinalMs, rep.Watch.FinalGap,
		gap10, rep.Watch.Verified, c.out)
}

// gaps projects the events' gap sequence for error messages.
func gaps(evs []server.WatchEvent) []float64 {
	out := make([]float64, len(evs))
	for i, ev := range evs {
		out[i] = ev.Gap
	}
	return out
}

// histPercentile estimates the p-quantile (in milliseconds) of the run's
// share of a cumulative latency histogram: per-bucket deltas between the
// after and before scrapes, with the quantile read off the first bucket
// whose cumulative delta covers it (the bucket's upper bound, i.e. a
// conservative estimate; the +Inf bucket reports the largest finite bound).
func histPercentile(before, after server.LatencySnapshot, p float64) float64 {
	total := after.Count - before.Count
	if total <= 0 || len(after.Buckets) == 0 {
		return 0
	}
	rank := int64(p * float64(total-1))
	lastLe := 0.0
	for i, b := range after.Buckets {
		var prev int64
		if i < len(before.Buckets) {
			prev = before.Buckets[i].Count
		}
		if b.Count-prev > rank {
			if b.LeMs == 0 { // +Inf bucket
				return lastLe
			}
			return b.LeMs
		}
		if b.LeMs != 0 {
			lastLe = b.LeMs
		}
	}
	return lastLe
}

// printQueueWait reports the run's queue-wait percentiles from the server's
// queue_wait_latency histogram — the early saturation signal: it grows
// before solve latency does when the worker pool is undersized.
func printQueueWait(before, after server.MetricsSnapshot) {
	b, a := before.QueueWaitLatency, after.QueueWaitLatency
	if a.Count-b.Count <= 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "ccload: queue wait p50<=%.0fms p99<=%.0fms (%d waits observed)\n",
		histPercentile(b, a, 0.50), histPercentile(b, a, 0.99), a.Count-b.Count)
}

// fetchMetrics reads the server's /metrics snapshot, retrying transient
// failures up to retries times.
func fetchMetrics(url string, retries int) (server.MetricsSnapshot, error) {
	var m server.MetricsSnapshot
	resp, err := doWithRetry(http.DefaultClient, retries, func() (*http.Request, error) {
		return http.NewRequest("GET", url+"/metrics", nil)
	})
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// startServerCmd launches the managed ccserved process (-server-cmd split
// on whitespace) with its output forwarded to stderr.
func startServerCmd(command string) (*exec.Cmd, error) {
	args := strings.Fields(command)
	if len(args) == 0 {
		return nil, fmt.Errorf("-server-cmd is empty")
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %q: %w", command, err)
	}
	return cmd, nil
}

// waitHealthy polls /healthz until the server answers 200 or the budget
// expires.
func waitHealthy(url string, budget time.Duration) error {
	deadline := time.Now().Add(budget)
	for {
		resp, err := http.Get(url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy within %s", url, budget)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// exportSession fetches a session's snapshot document.
func exportSession(client *http.Client, url, sid string, retries int) ([]byte, error) {
	resp, err := doWithRetry(client, retries, func() (*http.Request, error) {
		return http.NewRequest("GET", url+"/v1/sessions/"+sid+"/export", nil)
	})
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET export: status %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// importSession PUTs a snapshot document back under sid.
func importSession(client *http.Client, url, sid string, snap []byte, retries int) error {
	resp, err := doWithRetry(client, retries, func() (*http.Request, error) {
		return http.NewRequest("PUT", url+"/v1/sessions/"+sid+"/export", bytes.NewReader(snap))
	})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("PUT export: status %d: %s", resp.StatusCode, body)
	}
	return nil
}

// shuffled returns a job-order permutation of in; the canonical form (and
// thus the server's dedup key) is unchanged.
func shuffled(in *ccsched.Instance, rng *rand.Rand) *ccsched.Instance {
	out := &ccsched.Instance{M: in.M, Slots: in.Slots}
	for _, j := range rng.Perm(in.N()) {
		out.P = append(out.P, in.P[j])
		out.Class = append(out.Class, in.Class[j])
	}
	return out
}

func main() {
	var (
		url       = flag.String("url", "http://localhost:8080", "ccserved base URL")
		clients   = flag.Int("clients", 64, "concurrent clients")
		requests  = flag.Int("requests", 256, "total requests")
		dup       = flag.Float64("dup", 0.5, "fraction of requests that duplicate an earlier instance")
		family    = flag.String("family", "uniform", "workload family")
		n         = flag.Int("n", 200, "jobs per instance")
		classes   = flag.Int("classes", 20, "classes per instance")
		m         = flag.Int64("m", 8, "machines")
		slots     = flag.Int("slots", 3, "class slots per machine")
		pmax      = flag.Int64("pmax", 100, "maximum processing time")
		seed      = flag.Int64("seed", 1, "base RNG seed")
		variant   = flag.String("variant", "splittable", "splittable | preemptive | nonpreemptive")
		tier      = flag.String("tier", "approx", "auto | approx | ptas | exact")
		eps       = flag.Float64("eps", 0.5, "PTAS accuracy ε")
		timeoutMs = flag.Int64("timeout-ms", 0, "per-request solve deadline (0 = server default)")
		wait      = flag.Duration("wait", 5*time.Minute, "client-side wait per request")
		out       = flag.String("out", "", "write the JSON report here (default stdout)")
		label     = flag.String("label", "", "free-form label recorded in the report")
		watch     = flag.Bool("watch", false, "anytime mode: create one TierAnytime session, stream /watch to the terminal rung, assert >= 2 events with monotone non-increasing gaps, record time-to-first-answer and time-to-gap<=10%")
		churn     = flag.Float64("churn", 0, "session mode: fraction of jobs mutated per round (0 = classic load mode)")
		rounds    = flag.Int("rounds", 20, "session mode: delta rounds")
		resizePct = flag.Float64("churn-resize-pct", 2, "session mode: max resize magnitude as a percentage of the current size")
		verify    = flag.Bool("verify", false, "session mode: cold-solve each round in-process and require bit-identical makespans")
		retries   = flag.Int("retries", 0, "session mode: retries per request on 429/503/connection errors, with exponential backoff + jitter (0 = fail fast)")
		kill9     = flag.Bool("kill9", false, "session mode: SIGKILL and restart the managed server at -kill9-round and require warm, bit-identical recovery (needs -server-cmd)")
		serverCmd = flag.String("server-cmd", "", "session mode: launch this ccserved command and manage its lifecycle (required by -kill9)")
		kill9Rnd  = flag.Int("kill9-round", 0, "session mode: churn round after which the server is killed (0 = rounds/2)")
		kill9Wait = flag.Duration("kill9-wait", time.Second, "session mode: pause before the kill so a background checkpoint can land")
	)
	flag.Parse()
	v, err := ccsched.ParseVariant(*variant)
	if err != nil {
		fail(err)
	}
	tr, err := ccsched.ParseTier(*tier)
	if err != nil {
		fail(err)
	}
	opts := ccsched.Options{Variant: v, Tier: tr}
	if tr == ccsched.TierPTAS || tr == ccsched.TierAuto || tr == ccsched.TierAnytime || *watch {
		opts.Epsilon = *eps
	}

	if *watch {
		runWatch(watchConfig{
			url: *url, family: *family, n: *n, classes: *classes, m: *m,
			slots: *slots, pmax: *pmax, seed: *seed, opts: opts,
			verify: *verify, timeoutMs: *timeoutMs, wait: *wait,
			out: *out, label: *label, retries: *retries,
			cfg: runConfig{
				URL: *url, Clients: 1, Requests: 1, Family: *family,
				N: *n, Classes: *classes, Machines: *m, Slots: *slots,
				PMax: *pmax, Seed: *seed, Variant: v.String(), Tier: ccsched.TierAnytime.String(),
				Epsilon: opts.Epsilon, TimeoutMs: *timeoutMs,
			},
		})
		return
	}

	if *churn > 0 {
		runChurn(churnConfig{
			url: *url, family: *family, n: *n, classes: *classes, m: *m,
			slots: *slots, pmax: *pmax, seed: *seed, opts: opts,
			churn: *churn, rounds: *rounds, resizePct: *resizePct,
			verify: *verify, timeoutMs: *timeoutMs, wait: *wait,
			out: *out, label: *label, retries: *retries,
			kill9: *kill9, serverCmd: *serverCmd,
			kill9Round: *kill9Rnd, kill9Wait: *kill9Wait,
			cfg: runConfig{
				URL: *url, Clients: 1, Requests: *rounds, Family: *family,
				N: *n, Classes: *classes, Machines: *m, Slots: *slots,
				PMax: *pmax, Seed: *seed, Variant: v.String(), Tier: tr.String(),
				Epsilon: opts.Epsilon, TimeoutMs: *timeoutMs,
			},
		})
		return
	}

	// Build the request deck: originals, with half the duplicates placed
	// right after their original (coalescing pressure: both are in flight
	// together) and half at the tail (result-cache pressure: the original
	// finished long ago).
	nDup := int(float64(*requests) * *dup)
	nUnique := *requests - nDup
	if nUnique < 1 {
		fail(fmt.Errorf("dup fraction %v leaves no unique instances", *dup))
	}
	rng := rand.New(rand.NewSource(*seed * 7919))
	uniques := make([]*ccsched.Instance, nUnique)
	for i := range uniques {
		uniques[i], err = ccsched.Generate(*family, ccsched.GeneratorConfig{
			N: *n, Classes: *classes, Machines: *m, Slots: *slots, PMax: *pmax, Seed: *seed + int64(i),
		})
		if err != nil {
			fail(err)
		}
	}
	var deck []*ccsched.Instance
	adjacent := nDup / 2
	for i, u := range uniques {
		deck = append(deck, u)
		if i < adjacent {
			deck = append(deck, shuffled(u, rng))
		}
	}
	for i := 0; i < nDup-adjacent; i++ {
		deck = append(deck, shuffled(uniques[i%nUnique], rng))
	}

	// Fire the deck with -clients concurrent workers pulling off a shared
	// cursor, so adjacent deck entries run concurrently.
	var (
		cursor    atomic.Int64
		tot       totals
		statusMu  sync.Mutex
		latencies = make([]time.Duration, len(deck))
		succeeded = make([]bool, len(deck))
	)
	tot.ByStatus = make(map[int]int64)
	before, err := fetchMetrics(*url, 0)
	if err != nil {
		fail(fmt.Errorf("reading initial metrics (is ccserved running?): %w", err))
	}
	client := &http.Client{Timeout: *wait}
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < *clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(deck) {
					return
				}
				body, err := json.Marshal(server.SolveRequest{Instance: deck[i], Options: opts, TimeoutMs: *timeoutMs})
				if err != nil {
					fail(err)
				}
				reqStart := time.Now()
				resp, err := client.Post(*url+"/v1/solve?wait="+wait.String(), "application/json", bytes.NewReader(body))
				latencies[i] = time.Since(reqStart)
				if err != nil {
					atomic.AddInt64(&tot.Errors, 1)
					continue
				}
				var sr server.SolveResponse
				decErr := json.NewDecoder(resp.Body).Decode(&sr)
				resp.Body.Close()
				statusMu.Lock()
				tot.ByStatus[resp.StatusCode]++
				statusMu.Unlock()
				switch {
				case decErr != nil || resp.StatusCode != http.StatusOK || sr.Result == nil:
					if resp.StatusCode == http.StatusTooManyRequests {
						atomic.AddInt64(&tot.Dropped, 1)
					} else {
						atomic.AddInt64(&tot.Errors, 1)
					}
				default:
					atomic.AddInt64(&tot.OK, 1)
					succeeded[i] = true
					if sr.Coalesced {
						atomic.AddInt64(&tot.Coalesced, 1)
					}
					if sr.Cached {
						atomic.AddInt64(&tot.Cached, 1)
					}
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	after, err := fetchMetrics(*url, 0)
	if err != nil {
		fail(err)
	}
	printQueueWait(before, after)

	// Percentiles cover successful requests only — a 429 returning in a
	// millisecond would otherwise drag the reported latencies down.
	var sorted []time.Duration
	for i, d := range latencies {
		if succeeded[i] {
			sorted = append(sorted, d)
		}
	}
	if len(sorted) == 0 {
		fail(fmt.Errorf("no request succeeded (server deltas: coalesced=%d cached=%d rejected=%d)",
			after.CoalescedHitsTotal-before.CoalescedHitsTotal,
			after.ResultCacheHitsTotal-before.ResultCacheHitsTotal,
			after.RejectedQueueFullTotal-before.RejectedQueueFullTotal))
	}
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	pct := func(p float64) float64 {
		i := int(p * float64(len(sorted)-1))
		return float64(sorted[i]) / float64(time.Millisecond)
	}
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}

	rep := report{
		Label: *label,
		Config: runConfig{
			URL: *url, Clients: *clients, Requests: len(deck), DupFrac: *dup,
			Family: *family, N: *n, Classes: *classes, Machines: *m, Slots: *slots,
			PMax: *pmax, Seed: *seed, Variant: v.String(), Tier: tr.String(),
			Epsilon: opts.Epsilon, TimeoutMs: *timeoutMs,
		},
		WallS:      wall.Seconds(),
		Throughput: float64(len(deck)) / wall.Seconds(),
		Totals:     tot,
		LatencyMs: latencySummary{
			P50: pct(0.50), P90: pct(0.90), P99: pct(0.99),
			Max:  float64(sorted[len(sorted)-1]) / float64(time.Millisecond),
			Mean: float64(sum) / float64(len(sorted)) / float64(time.Millisecond),
		},
		Server: serverDeltas{
			Admitted:              after.AdmittedTotal - before.AdmittedTotal,
			Solves:                after.SolvesTotal - before.SolvesTotal,
			CoalescedHits:         after.CoalescedHitsTotal - before.CoalescedHitsTotal,
			ResultCacheHits:       after.ResultCacheHitsTotal - before.ResultCacheHitsTotal,
			RejectedQueueFull:     after.RejectedQueueFullTotal - before.RejectedQueueFullTotal,
			SolveErrors:           after.SolveErrorsTotal - before.SolveErrorsTotal,
			FeasibilityCacheHits:  after.FeasibilityCache.Hits - before.FeasibilityCache.Hits,
			FeasibilityCacheMiss:  after.FeasibilityCache.Misses - before.FeasibilityCache.Misses,
			ResultCacheEntriesNow: after.ResultCacheEntries,
		},
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fail(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fail(err)
	}
	fmt.Printf("ccload: %d requests in %.2fs (%.1f rps): %d ok, %d coalesced, %d cached, %d dropped, %d errors → %s\n",
		len(deck), wall.Seconds(), rep.Throughput, tot.OK, tot.Coalesced, tot.Cached, tot.Dropped, tot.Errors, *out)
}
