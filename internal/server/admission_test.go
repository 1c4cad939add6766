package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ccsched"
	"ccsched/internal/server"
)

// admissionRig drives one admission case through one entry point. Both entry
// points name the same canonical instance, target: "solve" POSTs it to
// /v1/solve, "session" PATCHes away the one extra job of a session created
// on target plus that job.
type admissionRig struct {
	s       *server.Server
	ts      *httptest.Server
	g       *gatedSolver
	release func() // idempotent close of g.release
	via     string
	target  *ccsched.Instance
	opts    ccsched.Options
	session string
	extraID int64
}

// admitReply is the part of either response shape the admission cases check.
type admitReply struct {
	code       int
	retryAfter string
	status     string
	id         string // the job id (solve) or the session id (session)
	coalesced  bool
	hasResult  bool
}

func newAdmissionRig(t *testing.T, cfg server.Config, via string) *admissionRig {
	t.Helper()
	g := newGatedSolver()
	cfg.Solver = g.solve
	s, ts := startServer(t, cfg)
	var once sync.Once
	a := &admissionRig{
		s: s, ts: ts, g: g, via: via,
		release: func() { once.Do(func() { close(g.release) }) },
		target:  testInstance(12, 7),
		opts:    ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox},
	}
	// Registered after startServer, so it runs before the drain.
	t.Cleanup(a.release)
	if via == "session" {
		in := &ccsched.Instance{M: a.target.M, Slots: a.target.Slots}
		in.P = append(append(in.P, a.target.P...), 997)
		in.Class = append(append(in.Class, a.target.Class...), 0)
		code, sr := sessionCall(t, "POST", ts.URL+"/v1/sessions", server.SessionCreateRequest{Instance: in, Options: a.opts})
		if code != http.StatusOK || sr.Status != server.StatusDone {
			t.Fatalf("session create: HTTP %d %+v", code, sr)
		}
		a.session, a.extraID = sr.SessionID, sr.JobIDs[len(sr.JobIDs)-1]
	}
	return a
}

// hold occupies the single worker with a gated one-shot solve of a distinct
// instance and returns its eventual HTTP status.
func (a *admissionRig) hold(t *testing.T, salt int64) <-chan int {
	st := make(chan int, 1)
	go func() {
		code, _ := postSolve(t, a.ts.URL, server.SolveRequest{Instance: testInstance(10, salt), Options: a.opts}, "")
		st <- code
	}()
	return st
}

// send submits target through the rig's entry point. Failures use t.Error,
// so it is safe from client goroutines.
func (a *admissionRig) send(t *testing.T, query string) admitReply {
	var req *http.Request
	var err error
	if a.via == "session" {
		body, _ := json.Marshal(server.SessionDelta{Remove: []int64{a.extraID}})
		req, err = http.NewRequest(http.MethodPatch, a.ts.URL+"/v1/sessions/"+a.session+query, bytes.NewReader(body))
	} else {
		body, _ := json.Marshal(server.SolveRequest{Instance: shuffle(a.target, 3), Options: a.opts})
		req, err = http.NewRequest(http.MethodPost, a.ts.URL+"/v1/solve"+query, bytes.NewReader(body))
	}
	if err != nil {
		t.Error(err)
		return admitReply{}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return admitReply{}
	}
	defer resp.Body.Close()
	out := admitReply{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	if a.via == "session" {
		var sr server.SessionResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Errorf("decoding session response (HTTP %d): %v", resp.StatusCode, err)
		}
		out.status, out.id, out.coalesced, out.hasResult = sr.Status, sr.SessionID, sr.Coalesced, sr.Result != nil
	} else {
		var sr server.SolveResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Errorf("decoding solve response (HTTP %d): %v", resp.StatusCode, err)
		}
		out.status, out.id, out.coalesced, out.hasResult = sr.Status, sr.ID, sr.Coalesced, sr.Result != nil
	}
	return out
}

// poll picks up the result of an earlier 202: a job poll for one-shot
// submissions, a session GET for session re-solves.
func (a *admissionRig) poll(t *testing.T, id string) admitReply {
	t.Helper()
	url := a.ts.URL + "/v1/jobs/" + id + "?wait=10s"
	if a.via == "session" {
		url = a.ts.URL + "/v1/sessions/" + id
	}
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decoding poll (HTTP %d): %v", resp.StatusCode, err)
	}
	return admitReply{code: resp.StatusCode, status: body.Status, hasResult: len(body.Result) > 0}
}

// TestAdmissionSameForSolveAndSession pins the admission behaviour one-shot
// solves and session re-solves share: every case runs once through POST
// /v1/solve and once through a session PATCH and must answer alike.
func TestAdmissionSameForSolveAndSession(t *testing.T) {
	cases := []struct {
		name string
		cfg  server.Config
		run  func(t *testing.T, a *admissionRig)
	}{
		{"queue full", server.Config{Workers: 1, QueueDepth: 1}, func(t *testing.T, a *admissionRig) {
			held := a.hold(t, 101)
			a.g.awaitStart(t)
			queued := a.hold(t, 102)
			waitMetrics(t, a.s, "queue full", func(m server.MetricsSnapshot) bool { return m.QueueDepth == 1 })
			r := a.send(t, "")
			if r.code != http.StatusTooManyRequests || r.retryAfter == "" {
				t.Fatalf("queue full: HTTP %d Retry-After %q, want 429 with Retry-After", r.code, r.retryAfter)
			}
			if m := a.s.Metrics(); m.RejectedQueueFullTotal != 1 {
				t.Fatalf("rejected_queue_full %d, want 1", m.RejectedQueueFullTotal)
			}
			a.release()
			for _, ch := range []<-chan int{held, queued} {
				if st := <-ch; st != http.StatusOK {
					t.Fatalf("held solve: HTTP %d", st)
				}
			}
		}},
		{"draining", server.Config{Workers: 1}, func(t *testing.T, a *admissionRig) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := a.s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			r := a.send(t, "")
			if r.code != http.StatusServiceUnavailable || r.retryAfter == "" {
				t.Fatalf("draining: HTTP %d Retry-After %q, want 503 with Retry-After", r.code, r.retryAfter)
			}
		}},
		{"wait budget exceeded", server.Config{Workers: 1}, func(t *testing.T, a *admissionRig) {
			held := a.hold(t, 101)
			a.g.awaitStart(t)
			r := a.send(t, "?wait=50ms")
			if r.code != http.StatusAccepted || r.status != server.StatusQueued || r.id == "" {
				t.Fatalf("outwaited: HTTP %d %+v, want 202 queued with an id", r.code, r)
			}
			a.release()
			if st := <-held; st != http.StatusOK {
				t.Fatalf("held solve: HTTP %d", st)
			}
			if p := a.poll(t, r.id); p.code != http.StatusOK || p.status != server.StatusDone || !p.hasResult {
				t.Fatalf("poll after 202: HTTP %d %+v, want done with result", p.code, p)
			}
		}},
		{"coalesces onto in-flight one-shot", server.Config{Workers: 1}, func(t *testing.T, a *admissionRig) {
			first := make(chan int, 1)
			go func() {
				code, _ := postSolve(t, a.ts.URL, server.SolveRequest{Instance: a.target, Options: a.opts}, "")
				first <- code
			}()
			a.g.awaitStart(t)
			before := a.s.Metrics()
			joined := make(chan admitReply, 1)
			go func() { joined <- a.send(t, "") }()
			waitMetrics(t, a.s, "joiner coalesced", func(m server.MetricsSnapshot) bool {
				return m.CoalescedHitsTotal == before.CoalescedHitsTotal+1
			})
			a.release()
			if st := <-first; st != http.StatusOK {
				t.Fatalf("in-flight one-shot: HTTP %d", st)
			}
			r := <-joined
			if r.code != http.StatusOK || r.status != server.StatusDone || !r.coalesced || !r.hasResult {
				t.Fatalf("joiner: HTTP %d %+v, want 200 done coalesced", r.code, r)
			}
			if n := a.g.calls.Load(); n != 1 {
				t.Fatalf("%d solver calls, want 1", n)
			}
			if m := a.s.Metrics(); m.CoalescedHitsTotal != before.CoalescedHitsTotal+1 {
				t.Fatalf("coalesced_hits_total %d → %d, want +1", before.CoalescedHitsTotal, m.CoalescedHitsTotal)
			}
		}},
	}
	for _, tc := range cases {
		for _, via := range []string{"solve", "session"} {
			t.Run(tc.name+"/"+via, func(t *testing.T) {
				tc.run(t, newAdmissionRig(t, tc.cfg, via))
			})
		}
	}
}
