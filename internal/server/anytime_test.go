package server_test

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"ccsched"
	"ccsched/internal/server"
)

// anytimeInstance is a small instance whose PTAS rungs solve in well under a
// second, so the watch tests drive a full ladder quickly.
func anytimeInstance(t *testing.T) *ccsched.Instance {
	t.Helper()
	in, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
		N: 16, Classes: 3, Machines: 3, Slots: 2, PMax: 50, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// watchStream opens GET /v1/sessions/{id}/watch (with an optional
// Last-Event-ID) and reads SSE events until a "final" event, the stream end,
// or the deadline. It returns the decoded events in arrival order.
func watchStream(t *testing.T, base, id, lastEventID string, deadline time.Duration) []server.WatchEvent {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", base+"/v1/sessions/"+id+"/watch", nil)
	if err != nil {
		t.Fatal(err)
	}
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("watch: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("watch: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("watch: Content-Type %q, want text/event-stream", ct)
	}
	var evs []server.WatchEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev server.WatchEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			t.Fatalf("watch: decoding event: %v", err)
		}
		evs = append(evs, ev)
		if ev.Final {
			return evs
		}
	}
	t.Fatalf("watch: stream ended without a final event (%d events, read err %v)", len(evs), sc.Err())
	return nil
}

// checkWatchEvents asserts the structural watch-stream contract: at least
// two events (first answer + terminal rung), strictly increasing
// generations, monotone non-increasing gaps, exactly one final event (last).
func checkWatchEvents(t *testing.T, evs []server.WatchEvent) {
	t.Helper()
	if len(evs) < 2 {
		t.Fatalf("got %d watch events, want >= 2 (first answer + terminal rung)", len(evs))
	}
	for i, ev := range evs {
		if i > 0 {
			if ev.Generation <= evs[i-1].Generation {
				t.Fatalf("event %d: generation %d not above predecessor %d", i, ev.Generation, evs[i-1].Generation)
			}
			if ev.Gap > evs[i-1].Gap+1e-9 {
				t.Fatalf("event %d: gap %g grew from %g", i, ev.Gap, evs[i-1].Gap)
			}
		}
		if ev.Final != (i == len(evs)-1) {
			t.Fatalf("event %d of %d: final=%v", i, len(evs), ev.Final)
		}
		if ev.Result == nil || ev.Makespan == "" || ev.LowerBound == "" {
			t.Fatalf("event %d: incomplete payload %+v", i, ev)
		}
	}
}

// TestAnytimeWatchStream drives an anytime session end to end: the create
// responds instantly with the tagged first answer, the watch stream refines
// to a final result bit-identical to a cold TierPTAS solve at the terminal
// ε, at least one refinement rung is metered, and a GET afterwards serves
// the refined best. The non-preemptive ε=1 input is a ladder whose gap
// strictly improves (2-approx 498 → PTAS 468).
func TestAnytimeWatchStream(t *testing.T) {
	nonPreemptive, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
		N: 24, Classes: 4, Machines: 3, Slots: 2, PMax: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		in   *ccsched.Instance
		opts ccsched.Options
	}{
		{"splittable-eps0.5", anytimeInstance(t), ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierAnytime, Epsilon: 0.5}},
		{"nonpreemptive-eps1", nonPreemptive, ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierAnytime, Epsilon: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := startServer(t, server.Config{Workers: 1, Logger: testLogger(t)})
			in, opts := tc.in, tc.opts

			code, sr := sessionCall(t, "POST", ts.URL+"/v1/sessions", server.SessionCreateRequest{
				Instance: in, Options: opts, TimeoutMs: 60000,
			})
			if code != http.StatusOK || sr.Status != server.StatusDone {
				t.Fatalf("create: %d %+v", code, sr)
			}
			if sr.Result == nil || sr.Result.Anytime == nil || sr.Result.Anytime.Rung != 0 {
				t.Fatalf("create: first answer not tagged as ladder rung 0: %+v", sr.Result)
			}
			if sr.Result.LowerBound == nil || sr.Result.LowerBound.Sign() <= 0 {
				t.Fatalf("create: first answer carries no certified lower bound")
			}

			evs := watchStream(t, ts.URL, sr.SessionID, "", 60*time.Second)
			checkWatchEvents(t, evs)
			if evs[0].Rung != 0 {
				t.Fatalf("first event is rung %d, want 0", evs[0].Rung)
			}
			if n := s.Metrics().RefinementRungsTotal; n < 1 {
				t.Fatalf("refinement_rungs_total %d after the final event, want >= 1", n)
			}

			coldOpts := opts
			coldOpts.Tier = ccsched.TierPTAS
			coldOpts.Cache = ccsched.NewFeasibilityCache()
			want, err := ccsched.Solve(context.Background(), in, coldOpts)
			if err != nil {
				t.Fatal(err)
			}
			final := evs[len(evs)-1]
			if final.Makespan != want.Makespan.RatString() {
				t.Fatalf("final anytime makespan %s != cold TierPTAS %s", final.Makespan, want.Makespan.RatString())
			}

			// The session's inline answer now reflects the refined best.
			code, gr := sessionCall(t, "GET", ts.URL+"/v1/sessions/"+sr.SessionID, nil)
			if code != http.StatusOK || gr.Result == nil || gr.Result.Anytime == nil || !gr.Result.Anytime.Final {
				t.Fatalf("get after final: %d %+v", code, gr)
			}
			if gr.Result.Makespan.RatString() != want.Makespan.RatString() {
				t.Fatalf("get after final: makespan %s != cold %s", gr.Result.Makespan.RatString(), want.Makespan.RatString())
			}
		})
	}
}

// TestAnytimeWatchReplay checks the Last-Event-ID reconnect contract — the
// replayed tail starts after the acknowledged generation, with no
// duplicates — plus the watch endpoint's error mapping.
func TestAnytimeWatchReplay(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1, Logger: testLogger(t)})
	in := anytimeInstance(t)
	code, sr := sessionCall(t, "POST", ts.URL+"/v1/sessions", server.SessionCreateRequest{
		Instance: in,
		Options:  ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierAnytime, Epsilon: 1},
	})
	if code != http.StatusOK {
		t.Fatalf("create: %d %+v", code, sr)
	}
	evs := watchStream(t, ts.URL, sr.SessionID, "", 60*time.Second)
	checkWatchEvents(t, evs)

	// Reconnect acknowledging the first event: the replay is exactly the tail.
	first := evs[0].Generation
	tail := watchStream(t, ts.URL, sr.SessionID, strconvUint(first), 30*time.Second)
	if len(tail) != len(evs)-1 {
		t.Fatalf("replay after gen %d: %d events, want %d", first, len(tail), len(evs)-1)
	}
	for i, ev := range tail {
		if ev.Generation != evs[i+1].Generation {
			t.Fatalf("replay event %d: generation %d, want %d (duplicate or gap)", i, ev.Generation, evs[i+1].Generation)
		}
	}

	// Error mapping: non-anytime session 409, unknown session 404, bad
	// Last-Event-ID 400.
	code, plain := sessionCall(t, "POST", ts.URL+"/v1/sessions", server.SessionCreateRequest{
		Instance: in, Options: ccsched.Options{Tier: ccsched.TierApprox},
	})
	if code != http.StatusOK {
		t.Fatalf("plain create: %d %+v", code, plain)
	}
	for name, tc := range map[string]struct {
		id, lei string
		want    int
	}{
		"not anytime": {plain.SessionID, "", http.StatusConflict},
		"unknown":     {"nope", "", http.StatusNotFound},
		"bad id":      {sr.SessionID, "x7", http.StatusBadRequest},
	} {
		req, err := http.NewRequest("GET", ts.URL+"/v1/sessions/"+tc.id+"/watch", nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.lei != "" {
			req.Header.Set("Last-Event-ID", tc.lei)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
	}
}

// TestAnytimePatchRestartsLadder checks that a delta restarts refinement: the
// PATCH answers inline with a fresh first answer and the stream publishes a
// new ladder — higher generations, rung 0 again, a new final matching a cold
// solve of the patched instance.
func TestAnytimePatchRestartsLadder(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1, Logger: testLogger(t)})
	in := anytimeInstance(t)
	opts := ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierAnytime, Epsilon: 1}
	code, sr := sessionCall(t, "POST", ts.URL+"/v1/sessions", server.SessionCreateRequest{
		Instance: in, Options: opts,
	})
	if code != http.StatusOK {
		t.Fatalf("create: %d %+v", code, sr)
	}
	evs := watchStream(t, ts.URL, sr.SessionID, "", 60*time.Second)
	checkWatchEvents(t, evs)
	lastGen := evs[len(evs)-1].Generation

	mirror := in.Clone()
	code, pr := sessionCall(t, "PATCH", ts.URL+"/v1/sessions/"+sr.SessionID, server.SessionDelta{
		Add: []server.SessionJob{{P: 90, Class: 1}},
	})
	if code != http.StatusOK || pr.Status != server.StatusDone {
		t.Fatalf("patch: %d %+v", code, pr)
	}
	if pr.Result == nil || pr.Result.Anytime == nil || pr.Result.Anytime.Rung != 0 {
		t.Fatalf("patch: inline answer not a fresh first answer: %+v", pr.Result)
	}
	mirror.P = append(mirror.P, 90)
	mirror.Class = append(mirror.Class, 1)

	evs2 := watchStream(t, ts.URL, sr.SessionID, strconvUint(lastGen), 60*time.Second)
	checkWatchEvents(t, evs2)
	if evs2[0].Generation <= lastGen {
		t.Fatalf("post-delta event generation %d not above pre-delta %d", evs2[0].Generation, lastGen)
	}
	coldOpts := opts
	coldOpts.Tier = ccsched.TierPTAS
	coldOpts.Cache = ccsched.NewFeasibilityCache()
	want, err := ccsched.Solve(context.Background(), mirror, coldOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := evs2[len(evs2)-1].Makespan; got != want.Makespan.RatString() {
		t.Fatalf("post-delta final makespan %s != cold %s", got, want.Makespan.RatString())
	}
}

// TestAnytimeBudgetExhaustionParks starves the refinement budget: with a
// near-zero per-tenant rate the bucket holds one token, so the ladder runs
// one rung and parks, metered.
func TestAnytimeBudgetExhaustionParks(t *testing.T) {
	s, ts := startServer(t, server.Config{Workers: 1, RefineBudgetPerSec: 1e-9, Logger: testLogger(t)})
	in := anytimeInstance(t)
	code, sr := sessionCall(t, "POST", ts.URL+"/v1/sessions", server.SessionCreateRequest{
		Instance: in,
		Options:  ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierAnytime, Epsilon: 0.5},
	})
	if code != http.StatusOK {
		t.Fatalf("create: %d %+v", code, sr)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		m := s.Metrics()
		if m.RefineBudgetExhaustedTotal >= 1 && m.RefineParked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("budget exhaustion not observed: exhausted=%d parked=%d",
				m.RefineBudgetExhaustedTotal, m.RefineParked)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The parked ladder never reached the terminal rung.
	code, gr := sessionCall(t, "GET", ts.URL+"/v1/sessions/"+sr.SessionID, nil)
	if code != http.StatusOK || gr.Result == nil || gr.Result.Anytime == nil {
		t.Fatalf("get: %d %+v", code, gr)
	}
	if gr.Result.Anytime.Final {
		t.Fatalf("ladder finished despite an exhausted budget")
	}
}

// TestAnytimeGenerationsSurviveRestart checks the on-disk generation floor:
// after a restart with the same state dir, the restored session's ladder
// publishes only generations above everything ever published before — the
// SSE resume contract with no duplicate generations across restarts.
func TestAnytimeGenerationsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := server.Config{Workers: 1, StateDir: dir, Logger: testLogger(t)}

	s1 := server.New(cfg)
	ts1 := httptest.NewServer(s1.Handler())
	in := anytimeInstance(t)
	code, sr := sessionCall(t, "POST", ts1.URL+"/v1/sessions", server.SessionCreateRequest{
		Instance: in,
		Options:  ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierAnytime, Epsilon: 1},
	})
	if code != http.StatusOK {
		t.Fatalf("create: %d %+v", code, sr)
	}
	evs := watchStream(t, ts1.URL, sr.SessionID, "", 60*time.Second)
	checkWatchEvents(t, evs)
	maxGen := evs[len(evs)-1].Generation
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	cancel()
	ts1.Close()

	s2 := server.New(cfg)
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = s2.Shutdown(ctx)
		ts2.Close()
	})
	// The restored ladder re-runs from rung 0 (warm state is re-verified, the
	// answer unchanged) but its generations start above the persisted floor.
	evs2 := watchStream(t, ts2.URL, sr.SessionID, strconvUint(maxGen), 60*time.Second)
	checkWatchEvents(t, evs2)
	if evs2[0].Generation <= maxGen {
		t.Fatalf("restored generation %d not above persisted floor %d", evs2[0].Generation, maxGen)
	}
	if got := evs2[len(evs2)-1].Makespan; got != evs[len(evs)-1].Makespan {
		t.Fatalf("restored final makespan %s != pre-restart %s", got, evs[len(evs)-1].Makespan)
	}

	// DELETE removes the generation sidecar along with the snapshot.
	if code, _ := sessionCall(t, "DELETE", ts2.URL+"/v1/sessions/"+sr.SessionID, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, sr.SessionID+".gen")); !os.IsNotExist(err) {
		t.Fatalf("generation sidecar survived DELETE: %v", err)
	}
}

// strconvUint formats a generation for a Last-Event-ID header.
func strconvUint(g uint64) string {
	return strconv.FormatUint(g, 10)
}
