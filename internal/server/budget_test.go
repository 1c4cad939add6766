package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ccsched"
)

// budgetCount is the number of per-tenant refinement buckets held.
func budgetCount(s *Server) int {
	s.budgetMu.Lock()
	defer s.budgetMu.Unlock()
	return len(s.budgets)
}

// budgetCall sends one session request as the given tenant and decodes the
// response.
func budgetCall(t *testing.T, method, url, tenant string, body any) SessionResponse {
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
	req.Header.Set("X-Tenant-Id", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d %+v", method, url, resp.StatusCode, sr)
	}
	return sr
}

// TestRefineBudgetsForgetIdleTenants: anytime sessions created and deleted
// under fresh X-Tenant-Id values must not leave their refinement buckets
// behind once the buckets have refilled, or the map grows with every
// tenant header ever seen. A drained bucket is kept, since forgetting it
// would hand the tenant a full burst.
func TestRefineBudgetsForgetIdleTenants(t *testing.T) {
	s := New(Config{Workers: 1, RefineBudgetPerSec: 20})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()
	in := genInstance(t, "uniform", 16, 3, 3, 2, 5)
	create := SessionCreateRequest{
		Instance: in,
		Options:  ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierAnytime, Epsilon: 1},
	}
	const tenants = 12
	var ids []string
	for i := 0; i < tenants; i++ {
		sr := budgetCall(t, "POST", ts.URL+"/v1/sessions", fmt.Sprintf("tenant-%d", i), create)
		ids = append(ids, sr.SessionID)
	}
	// Every ladder reaching its final rung has spent at least one token of
	// its own tenant's bucket.
	deadline := time.Now().Add(30 * time.Second)
	for i, id := range ids {
		for {
			sr := budgetCall(t, "GET", ts.URL+"/v1/sessions/"+id, fmt.Sprintf("tenant-%d", i), nil)
			if sr.Result != nil && sr.Result.Anytime != nil && sr.Result.Anytime.Final {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("session %s never refined to its final rung", id)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	for i, id := range ids {
		budgetCall(t, "DELETE", ts.URL+"/v1/sessions/"+id, fmt.Sprintf("tenant-%d", i), nil)
	}
	// A few tokens refill in well under a second at 20/s; the nudger
	// sweeps every refineNudgeInterval.
	deadline = time.Now().Add(5 * time.Second)
	for budgetCount(s) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d refinement buckets held with no live session", budgetCount(s))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// A drained bucket survives the sweep; the refilled one goes.
	now := time.Now()
	s.budgetMu.Lock()
	s.budgets["drained"] = &refineBudget{tokens: 0, last: now}
	s.budgets["refilled"] = &refineBudget{tokens: 0, last: now.Add(-2 * time.Second)}
	s.budgetMu.Unlock()
	s.sweepBudgets(now)
	s.budgetMu.Lock()
	_, drained := s.budgets["drained"]
	_, refilled := s.budgets["refilled"]
	s.budgetMu.Unlock()
	if !drained || refilled {
		t.Fatalf("after a sweep: drained bucket kept = %v, refilled bucket kept = %v; want true, false", drained, refilled)
	}
}
