package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"ccsched"
	"ccsched/internal/server"
)

// sessionCall performs one /v1/sessions request and decodes the response.
func sessionCall(t *testing.T, method, url string, body any) (int, server.SessionResponse) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr server.SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("%s %s: decoding response: %v", method, url, err)
	}
	return resp.StatusCode, sr
}

// TestSessionLifecycle drives create → patch → get → delete end to end with
// the real solver and checks every re-solve's makespan against a stateless
// cold Solve of a mirrored instance.
func TestSessionLifecycle(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 2, Logger: testLogger(t)})
	in, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
		N: 40, Classes: 6, Machines: 5, Slots: 2, PMax: 200, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, Epsilon: 1}

	code, sr := sessionCall(t, "POST", ts.URL+"/v1/sessions", server.SessionCreateRequest{
		Instance: in, Options: opts, TimeoutMs: 60000,
	})
	if code != http.StatusOK || sr.Status != server.StatusDone {
		t.Fatalf("create: %d %+v", code, sr)
	}
	if sr.SessionID == "" || len(sr.JobIDs) != in.N() || sr.Result == nil {
		t.Fatalf("create: incomplete response %+v", sr)
	}
	mirror := in.Clone()

	coldCheck := func(step string, got *server.SessionResponse) {
		t.Helper()
		coldOpts := opts
		coldOpts.Cache = ccsched.NewFeasibilityCache()
		want, err := ccsched.Solve(context.Background(), mirror, coldOpts)
		if err != nil {
			t.Fatalf("%s: cold solve: %v", step, err)
		}
		if got.Result == nil || got.Result.Makespan.Cmp(want.Makespan) != 0 {
			t.Fatalf("%s: session makespan %v != cold %s", step, got.Result, want.Makespan.RatString())
		}
	}
	coldCheck("create", &sr)

	// Patch: resize two jobs, remove one, add one, by stable id.
	delta := server.SessionDelta{
		Resize: []server.SessionResize{
			{ID: sr.JobIDs[0], P: 177},
			{ID: sr.JobIDs[5], P: 3},
		},
		Remove: []int64{sr.JobIDs[7]},
		Add:    []server.SessionJob{{P: 55, Class: 1}},
	}
	mirror.P[0], mirror.P[5] = 177, 3
	mirror.P = append(mirror.P[:7], mirror.P[8:]...)
	mirror.Class = append(mirror.Class[:7], mirror.Class[8:]...)
	mirror.P = append(mirror.P, 55)
	mirror.Class = append(mirror.Class, 1)

	code, pr := sessionCall(t, "PATCH", ts.URL+"/v1/sessions/"+sr.SessionID, delta)
	if code != http.StatusOK || pr.Status != server.StatusDone {
		t.Fatalf("patch: %d %+v", code, pr)
	}
	if len(pr.JobIDs) != mirror.N() {
		t.Fatalf("patch: %d job ids, want %d", len(pr.JobIDs), mirror.N())
	}
	coldCheck("patch", &pr)

	// An unchanged GET is answered from the result cache.
	code, gr := sessionCall(t, "GET", ts.URL+"/v1/sessions/"+sr.SessionID, nil)
	if code != http.StatusOK || gr.Status != server.StatusDone {
		t.Fatalf("get: %d %+v", code, gr)
	}
	if !gr.Cached {
		t.Fatalf("unchanged GET was not served from the result cache: %+v", gr)
	}
	coldCheck("get", &gr)

	// Machine-count delta.
	code, mr := sessionCall(t, "PATCH", ts.URL+"/v1/sessions/"+sr.SessionID, server.SessionDelta{SetMachines: 7})
	if code != http.StatusOK {
		t.Fatalf("patch machines: %d %+v", code, mr)
	}
	mirror.M = 7
	coldCheck("patch machines", &mr)

	// Delete, then every verb 404s.
	if code, _ := sessionCall(t, "DELETE", ts.URL+"/v1/sessions/"+sr.SessionID, nil); code != http.StatusOK {
		t.Fatalf("delete: %d", code)
	}
	if code, _ := sessionCall(t, "GET", ts.URL+"/v1/sessions/"+sr.SessionID, nil); code != http.StatusNotFound {
		t.Fatalf("get after delete: %d, want 404", code)
	}
	if code, _ := sessionCall(t, "PATCH", ts.URL+"/v1/sessions/"+sr.SessionID, server.SessionDelta{}); code != http.StatusNotFound {
		t.Fatalf("patch after delete: %d, want 404", code)
	}
}

// TestSessionDeltaValidation checks the delta surface's error mapping.
func TestSessionDeltaValidation(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1, MaxJobs: 50, Logger: testLogger(t)})
	in := testInstance(10, 1)
	code, sr := sessionCall(t, "POST", ts.URL+"/v1/sessions", server.SessionCreateRequest{
		Instance: in, Options: ccsched.Options{Tier: ccsched.TierApprox},
	})
	if code != http.StatusOK {
		t.Fatalf("create: %d %+v", code, sr)
	}
	for name, delta := range map[string]server.SessionDelta{
		"unknown resize id": {Resize: []server.SessionResize{{ID: 999999, P: 5}}},
		"bad resize size":   {Resize: []server.SessionResize{{ID: sr.JobIDs[0], P: 0}}},
		"unknown remove id": {Remove: []int64{424242}},
	} {
		code, er := sessionCall(t, "PATCH", ts.URL+"/v1/sessions/"+sr.SessionID, delta)
		if code != http.StatusInternalServerError && code != http.StatusBadRequest && code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: status %d %+v, want an error status", name, code, er)
		}
		if er.Error == "" {
			t.Fatalf("%s: no error message", name)
		}
	}
	// Oversized add batch trips the MaxJobs admission bound with 422.
	big := server.SessionDelta{}
	for i := 0; i < 60; i++ {
		big.Add = append(big.Add, server.SessionJob{P: 1, Class: 0})
	}
	code, _ = sessionCall(t, "PATCH", ts.URL+"/v1/sessions/"+sr.SessionID, big)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("oversized add: %d, want 422", code)
	}
	// The failed batches left the session solvable.
	code, gr := sessionCall(t, "GET", ts.URL+"/v1/sessions/"+sr.SessionID, nil)
	if code != http.StatusOK || gr.Status != server.StatusDone {
		t.Fatalf("get after failed deltas: %d %+v", code, gr)
	}
}

// TestSessionCapAndMetrics checks the MaxSessions bound and the
// session-labeled metrics split.
func TestSessionCapAndMetrics(t *testing.T) {
	s, ts := startServer(t, server.Config{Workers: 1, MaxSessions: 2, Logger: testLogger(t)})
	opts := ccsched.Options{Tier: ccsched.TierApprox}
	var ids []string
	for i := 0; i < 2; i++ {
		code, sr := sessionCall(t, "POST", ts.URL+"/v1/sessions", server.SessionCreateRequest{
			Instance: testInstance(8, int64(i)), Options: opts,
		})
		if code != http.StatusOK {
			t.Fatalf("create %d: %d", i, code)
		}
		ids = append(ids, sr.SessionID)
	}
	if code, _ := sessionCall(t, "POST", ts.URL+"/v1/sessions", server.SessionCreateRequest{
		Instance: testInstance(8, 9), Options: opts,
	}); code != http.StatusTooManyRequests {
		t.Fatalf("create beyond cap: %d, want 429", code)
	}
	// Freeing one makes room again.
	if code, _ := sessionCall(t, "DELETE", ts.URL+"/v1/sessions/"+ids[0], nil); code != http.StatusOK {
		t.Fatal("delete failed")
	}
	if code, _ := sessionCall(t, "POST", ts.URL+"/v1/sessions", server.SessionCreateRequest{
		Instance: testInstance(8, 9), Options: opts,
	}); code != http.StatusOK {
		t.Fatal("create after delete still refused")
	}

	m := s.Metrics()
	if m.SessionsActive != 2 {
		t.Fatalf("sessions_active = %d, want 2", m.SessionsActive)
	}
	if m.SessionsCreatedTotal != 3 {
		t.Fatalf("sessions_created_total = %d, want 3", m.SessionsCreatedTotal)
	}
	if m.SessionResolvesTotal < 2 {
		t.Fatalf("session_resolves_total = %d, want ≥ 2", m.SessionResolvesTotal)
	}
	// Session re-solves land in the session histogram, not the one-shot one.
	if m.SessionSolveLatency.Count != m.SessionResolvesTotal {
		t.Fatalf("session histogram count %d != session resolves %d", m.SessionSolveLatency.Count, m.SessionResolvesTotal)
	}
	if m.SolveLatency.Count != m.SolvesTotal-m.SessionResolvesTotal {
		t.Fatalf("one-shot histogram count %d != %d-%d", m.SolveLatency.Count, m.SolvesTotal, m.SessionResolvesTotal)
	}
}

// TestSessionSharesPipelineWithSolve proves session re-solves publish into
// the same canonical result cache one-shot requests read: a /v1/solve of a
// job-shuffled copy of a session's instance costs zero additional solves.
func TestSessionSharesPipelineWithSolve(t *testing.T) {
	s, ts := startServer(t, server.Config{Workers: 1, Logger: testLogger(t)})
	in := testInstance(12, 4)
	opts := ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox}
	code, sr := sessionCall(t, "POST", ts.URL+"/v1/sessions", server.SessionCreateRequest{Instance: in, Options: opts})
	if code != http.StatusOK || sr.Status != server.StatusDone {
		t.Fatalf("create: %d %+v", code, sr)
	}
	before := s.Metrics()
	status, resp := postSolve(t, ts.URL, server.SolveRequest{Instance: shuffle(in, 7), Options: opts}, "")
	if status != http.StatusOK || resp.Status != server.StatusDone {
		t.Fatalf("one-shot solve: %d %+v", status, resp)
	}
	if !resp.Cached {
		t.Fatalf("one-shot solve of a session-solved instance missed the result cache: %+v", resp)
	}
	after := s.Metrics()
	if after.SolvesTotal != before.SolvesTotal {
		t.Fatalf("one-shot solve ran a solver invocation (%d → %d)", before.SolvesTotal, after.SolvesTotal)
	}
}
