package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/big"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ccsched"
	"ccsched/internal/promtext"
	"ccsched/internal/server"
	"ccsched/internal/trace"
)

// syncBuffer is a goroutine-safe bytes.Buffer for capturing log output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// newJSONLogger builds the slog logger a production -log-format json
// deployment would use, writing to w.
func newJSONLogger(w io.Writer) *slog.Logger {
	return slog.New(slog.NewJSONHandler(w, nil))
}

// tracingSolver is a fake solver whose wall clock is proportional to the
// instance size and that honors opts.Trace, so trace-ring tests control
// exactly which solves rank as "slowest" without real solver variance.
func tracingSolver(msPerJob time.Duration) server.SolveFunc {
	return func(ctx context.Context, in *ccsched.Instance, opts ccsched.Options) (*ccsched.Result, error) {
		select {
		case <-time.After(time.Duration(in.N()) * msPerJob):
		case <-ctx.Done():
			return nil, fmt.Errorf("%w: %w", ccsched.ErrCanceled, ctx.Err())
		}
		res := &ccsched.Result{
			Variant:    opts.Variant,
			Tier:       ccsched.TierApprox,
			Makespan:   new(big.Rat).SetInt64(in.TotalLoad()),
			LowerBound: new(big.Rat).SetInt64(1),
		}
		if opts.Trace {
			col := trace.NewCollector(0)
			root := col.Root("solve")
			root.End()
			res.Trace = col.Export()
		}
		return res, nil
	}
}

// TestPromExposition pins the Prometheus surface of /metrics: content
// negotiation (?format=prom and Accept: text/plain), a lint-clean exposition
// document, and the presence of the counter/gauge/histogram families a
// scrape config would alert on — including the complete _bucket/_sum/_count
// triplet of the queue-wait histogram.
func TestPromExposition(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 2, Solver: tracingSolver(0)})
	opts := ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox}
	if code, _ := postSolve(t, ts.URL, server.SolveRequest{Instance: testInstance(6, 1), Options: opts}, ""); code != http.StatusOK {
		t.Fatalf("solve: HTTP %d", code)
	}

	fetch := func(query string, accept string) (string, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics"+query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /metrics%s: HTTP %d", query, resp.StatusCode)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	for _, tc := range []struct{ query, accept string }{
		{"?format=prom", ""},
		{"", "text/plain"},
	} {
		body, ctype := fetch(tc.query, tc.accept)
		if !strings.HasPrefix(ctype, "text/plain") {
			t.Fatalf("prom scrape (query=%q accept=%q): Content-Type = %q", tc.query, tc.accept, ctype)
		}
		if err := promtext.Lint([]byte(body)); err != nil {
			t.Fatalf("exposition fails lint: %v\n%s", err, body)
		}
		for _, want := range []string{
			"# TYPE ccsched_requests_total counter",
			"# TYPE ccsched_queue_depth gauge",
			"# TYPE ccsched_solve_latency_seconds histogram",
			"ccsched_solve_latency_seconds_bucket{le=\"+Inf\"}",
			"ccsched_solve_latency_seconds_sum",
			"ccsched_solve_latency_seconds_count",
			"ccsched_queue_wait_latency_seconds_bucket",
			"ccsched_queue_wait_latency_seconds_sum",
			"ccsched_queue_wait_latency_seconds_count",
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("exposition missing %q\n%s", want, body)
			}
		}
	}

	// Default (no format, JSON Accept) stays the JSON snapshot.
	body, ctype := fetch("", "application/json")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Fatalf("JSON default: Content-Type = %q", ctype)
	}
	var m server.MetricsSnapshot
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("JSON default does not decode: %v", err)
	}
	if m.QueueWaitLatency.Count < 1 {
		t.Fatalf("queue_wait_latency.count = %d after a solve, want >= 1", m.QueueWaitLatency.Count)
	}
}

// TestTraceRingEviction pins the slowest-traces ring: with capacity 2 and
// three solves of distinct wall clocks, /v1/debug/traces returns exactly the
// two slowest, slowest first, the fastest evicted — and each retained entry
// carries a non-empty span timeline even though no client asked for a trace
// (the ring forces tracing server-side).
func TestTraceRingEviction(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1, TraceRing: 2, Solver: tracingSolver(50 * time.Millisecond)})
	// n controls the fake solver's wall clock: 2 → ~100ms (evicted),
	// 6 → ~300ms (slowest), 4 → ~200ms. The 100ms gaps keep the ranking
	// intact when other processes hold the CPUs and a solve overruns.
	for _, n := range []int{2, 6, 4} {
		if code, sr := postSolve(t, ts.URL, server.SolveRequest{Instance: testInstance(n, int64(n))}, ""); code != http.StatusOK {
			t.Fatalf("solve n=%d: HTTP %d", n, code)
		} else if sr.Result != nil && sr.Result.Trace != nil {
			t.Fatalf("solve n=%d: response carries a trace the client never asked for", n)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr server.TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Capacity != 2 || len(tr.Traces) != 2 {
		t.Fatalf("ring: capacity=%d entries=%d, want 2/2", tr.Capacity, len(tr.Traces))
	}
	if tr.Traces[0].N != 6 || tr.Traces[1].N != 4 {
		t.Fatalf("ring order: n=[%d %d], want [6 4] (slowest first, n=2 evicted)", tr.Traces[0].N, tr.Traces[1].N)
	}
	if tr.Traces[0].SolveMs < tr.Traces[1].SolveMs {
		t.Fatalf("ring not sorted by solve_ms descending: %v < %v", tr.Traces[0].SolveMs, tr.Traces[1].SolveMs)
	}
	for i, e := range tr.Traces {
		if e.Trace == nil || len(e.Trace.Spans) == 0 {
			t.Fatalf("ring entry %d has no span timeline", i)
		}
	}

	// ?trace=1 returns the timeline on the wire too, without re-solving
	// untraced state: the request key separates traced and untraced entries.
	if code, sr := postSolve(t, ts.URL, server.SolveRequest{Instance: testInstance(6, 6)}, "?trace=1"); code != http.StatusOK {
		t.Fatalf("traced solve: HTTP %d", code)
	} else if sr.Result == nil || sr.Result.Trace == nil || len(sr.Result.Trace.Spans) == 0 {
		t.Fatal("traced solve: result.trace missing or empty")
	}
}

// TestTraceRingDisabled pins the off switch: a negative TraceRing keeps
// /v1/debug/traces answering (empty, capacity 0) and solves untraced.
func TestTraceRingDisabled(t *testing.T) {
	_, ts := startServer(t, server.Config{Workers: 1, TraceRing: -1, Solver: tracingSolver(0)})
	if code, _ := postSolve(t, ts.URL, server.SolveRequest{Instance: testInstance(3, 1)}, ""); code != http.StatusOK {
		t.Fatalf("solve: HTTP %d", code)
	}
	resp, err := http.Get(ts.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr server.TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Capacity != 0 || len(tr.Traces) != 0 {
		t.Fatalf("disabled ring: capacity=%d entries=%d, want 0/0", tr.Capacity, len(tr.Traces))
	}
}

// TestRequestIDAndStructuredLog pins the request-log middleware: a
// client-supplied X-Request-Id is honored and echoed, a missing one is
// minted, and every request emits one structured log line carrying the id,
// path, status and outcome.
func TestRequestIDAndStructuredLog(t *testing.T) {
	var buf syncBuffer
	logger := newJSONLogger(&buf)
	_, ts := startServer(t, server.Config{Workers: 1, Solver: tracingSolver(0), Logger: logger})

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "test-req-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "test-req-42" {
		t.Fatalf("client id not echoed: X-Request-Id = %q", got)
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got == "" {
		t.Fatal("no X-Request-Id minted for a request without one")
	}

	opts := ccsched.Options{Variant: ccsched.NonPreemptive, Tier: ccsched.TierApprox}
	if code, _ := postSolve(t, ts.URL, server.SolveRequest{Instance: testInstance(4, 1), Options: opts}, ""); code != http.StatusOK {
		t.Fatalf("solve: HTTP %d", code)
	}

	// The log is written asynchronously to the response only in the sense
	// that the middleware logs after the handler returns; by the time the
	// client has the response the line is flushed.
	logged := buf.String()
	var reqLine map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logged), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", line, err)
		}
		if rec["msg"] == "request" && rec["id"] == "test-req-42" {
			reqLine = rec
		}
	}
	if reqLine == nil {
		t.Fatalf("no structured request line with id=test-req-42 in:\n%s", logged)
	}
	if reqLine["path"] != "/healthz" || reqLine["outcome"] != "done" {
		t.Fatalf("request line fields off: %v", reqLine)
	}
	if !strings.Contains(logged, `"msg":"request"`) || !strings.Contains(logged, `"outcome":"admitted"`) {
		t.Fatalf("solve request not logged with an admitted outcome:\n%s", logged)
	}
}
