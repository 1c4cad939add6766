package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ccsched"
	"ccsched/internal/faultinject"
)

// The HTTP surface:
//
//	POST /v1/solve            submit an instance+options; awaits the result
//	                          up to ?wait= (default 30s; 0 = async submit),
//	                          else returns 202 with a job id
//	GET  /v1/jobs/{id}        poll a submission; ?wait= blocks until done
//	GET  /v1/sessions/{id}/watch
//	                          SSE stream of an anytime session's refinement
//	                          improvements (see watch.go); Last-Event-ID
//	                          replays missed generations on reconnect
//	GET  /healthz             liveness: 200 with queue gauges for as long as
//	                          the process serves (draining included)
//	GET  /readyz              readiness: 503 while draining, while the
//	                          admission queue is over 90% full, or while
//	                          checkpointing is degraded; 200 otherwise
//	GET  /metrics             MetricsSnapshot JSON; ?format=prom (or
//	                          Accept: text/plain) selects the Prometheus
//	                          text exposition
//	GET  /v1/debug/traces     the TraceRing slowest solves' span timelines
//	     /v1/debug/faults     fault-injection admin (Config.FaultAdmin only):
//	                          GET lists, PUT arms spec strings, DELETE clears
//
// Status mapping: 200 done, 202 still queued/running, 400 malformed, 404
// unknown/expired job, 408 solve deadline exceeded, 422 infeasible, beyond
// exact-tier size limits or quarantined after repeated solver panics, 429
// queue full, 499 canceled (all clients gone), 503 shutting down. 429 and
// 503 rejections carry a Retry-After header with a sensible resubmit delay.
//
// Degradation: soft_timeout_ms in the body (or Config.SoftTimeout) arms a
// soft deadline on synchronous non-approx solves — when it fires first, the
// response is the millisecond 2-approx with its certified lower bound and
// result.degraded=true, while the full solve keeps running and publishes
// for later requests (which then get the full answer). A request that
// coalesced onto a flight which then dies at its creator's deadline before
// the request's own soft deadline fires is answered degraded as well.
//
// Tracing: ?trace=1 (or options.trace in the body) returns the solve's span
// timeline in result.trace. While the trace ring is enabled solves run
// traced regardless, but responses only carry the trace when asked —
// clients never pay response bytes they did not request.

// defaultWait is how long POST /v1/solve blocks for the result when the
// request does not say otherwise.
const defaultWait = 30 * time.Second

// Handler returns the HTTP handler exposing the service API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("PATCH /v1/sessions/{id}", s.handleSessionPatch)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /v1/sessions/{id}/export", s.handleSessionExport)
	mux.HandleFunc("PUT /v1/sessions/{id}/export", s.handleSessionImport)
	mux.HandleFunc("GET /v1/sessions/{id}/watch", s.handleSessionWatch)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /v1/debug/traces", s.handleTraces)
	if s.cfg.FaultAdmin {
		mux.HandleFunc("GET /v1/debug/faults", s.handleFaultsList)
		mux.HandleFunc("PUT /v1/debug/faults", s.handleFaultsArm)
		mux.HandleFunc("DELETE /v1/debug/faults", s.handleFaultsClear)
	}
	return s.withRequestLog(mux)
}

// wantTrace reports whether the request asked for the span timeline in its
// response: ?trace=1 (or true), or optsTrace (the decoded options.trace).
func wantTrace(r *http.Request, optsTrace bool) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true":
		return true
	}
	return optsTrace
}

// writeJSON writes v with the given HTTP status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeSolveResponse writes r as writeJSON does. A response that carries a
// result is rendered by appendSolveResponse, so encoding/json does not
// re-scan its schedules; should that fail, the failure is logged and
// writeJSON renders it instead.
func (s *Server) writeSolveResponse(w http.ResponseWriter, status int, r SolveResponse) {
	if r.Result != nil {
		b, err := appendSolveResponse(nil, &r)
		if err == nil {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			_, _ = w.Write(append(b, '\n')) // within b's capacity
			return
		}
		s.logger.Error("solve response: spliced encoding failed; using encoding/json", "err", err)
	}
	writeJSON(w, status, r)
}

// appendSolveResponse renders r as json.Encoder does, without the trailing
// newline, with its result rendered by Result.AppendJSON. The result
// follows id and status, so it goes right after their rendering at the
// head of the envelope's encoding/json output; every later field is
// omitempty. The result and the rest of the envelope go into b with one
// growth, which leaves room for the newline.
func appendSolveResponse(b []byte, r *SolveResponse) ([]byte, error) {
	env := *r
	env.Result = nil
	envJSON, err := json.Marshal(env)
	if err != nil {
		return b, err
	}
	id, _ := json.Marshal(r.ID) // strings always marshal
	status, _ := json.Marshal(r.Status)
	at := len(`{"id":`) + len(id) + len(`,"status":`) + len(status)
	b = append(b, envJSON[:at]...)
	b = append(b, `,"result":`...)
	if b, err = r.Result.AppendJSON(b, append(envJSON[at:], '\n')...); err != nil {
		return b, err
	}
	return b[:len(b)-1], nil
}

// writeError writes an ErrorResponse.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// Retry-After delays suggested on backpressure rejections: a full queue
// drains within a solve or two, a draining or degraded server needs longer.
const (
	retryAfterQueueFull = time.Second
	retryAfterDraining  = 5 * time.Second
)

// setRetryAfter attaches a Retry-After header (whole seconds, minimum 1),
// which a client can honor instead of its own backoff.
func setRetryAfter(w http.ResponseWriter, d time.Duration) {
	secs := int64(d / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
}

// statusClientClosedRequest is nginx's conventional code for "the client
// went away before a response existed"; no stdlib constant exists.
const statusClientClosedRequest = 499

// parseWait reads the ?wait= query parameter: a Go duration ("500ms",
// "30s") or bare milliseconds. def applies when absent.
func parseWait(r *http.Request, def time.Duration) (time.Duration, error) {
	raw := r.URL.Query().Get("wait")
	if raw == "" {
		return def, nil
	}
	if d, err := time.ParseDuration(raw); err == nil {
		if d < 0 {
			return 0, fmt.Errorf("negative wait %q", raw)
		}
		return d, nil
	}
	// Bare milliseconds. strconv rejects trailing garbage, so a typo like
	// "30m5" is a 400, not a silent 30ms wait.
	ms, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || ms < 0 {
		return 0, fmt.Errorf("cannot parse wait %q", raw)
	}
	return time.Duration(ms) * time.Millisecond, nil
}

// handleSolve admits one solve request and (unless wait is 0) awaits its
// completion.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r, defaultWait)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	req, err := s.decodeSolveRequest(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Instance == nil {
		writeError(w, http.StatusBadRequest, "missing \"instance\"")
		return
	}
	trace := wantTrace(r, req.Options.Trace)
	soft := s.softDeadline(req.SoftTimeoutMs)
	sub, err := s.submit(req.Instance, req.Options, time.Duration(req.TimeoutMs)*time.Millisecond, wait == 0, trace)
	if err != nil {
		// Admission saturation with a soft deadline armed: answer with the
		// millisecond 2-approx instead of bouncing the client.
		if errors.Is(err, ErrQueueFull) && soft > 0 && s.degradeEligible(req.Options) {
			setOutcome(r, "degraded")
			s.respondDegradedDirect(w, r, req.Instance, req.Options, trace)
			return
		}
		writeError(w, s.errorStatus(w, err), "%v", err)
		return
	}
	noteAdmission(r, sub)
	reply := func(out *outcome) { s.respondOutcome(w, r, sub, out, false, trace) }
	switch {
	case sub.done != nil:
		s.respondOutcome(w, r, sub, sub.done, true, trace)
	case wait == 0:
		reply(nil)
	default:
		s.awaitFlight(w, r, sub.flight, wait, soft, reply)
	}
}

// noteAdmission labels the request log with how admission placed the
// request: a result-cache hit, a join onto an in-flight solve, or a fresh
// flight.
func noteAdmission(r *http.Request, sub *submission) {
	switch {
	case sub.done != nil:
		setOutcome(r, "cache-hit")
	case sub.coalesced:
		setOutcome(r, "coalesced")
	default:
		setOutcome(r, "admitted")
	}
}

// errorStatus maps an admission refusal or a finished solve's error onto
// its HTTP status for every endpoint, setting Retry-After on the
// backpressure (queue full, too many sessions, draining) and quarantine
// refusals.
func (s *Server) errorStatus(w http.ResponseWriter, err error) int {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrTooManySessions):
		setRetryAfter(w, retryAfterQueueFull)
		return http.StatusTooManyRequests
	case errors.Is(err, ErrShuttingDown):
		setRetryAfter(w, retryAfterDraining)
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrQuarantined):
		setRetryAfter(w, s.cfg.PanicQuarantineTTL)
		return http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	case errors.Is(err, ccsched.ErrCanceled), errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	case errors.Is(err, ErrInstanceTooLarge), errors.Is(err, ccsched.ErrInfeasible), errors.Is(err, ccsched.ErrTooLarge):
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// softDeadline resolves one request's degraded-fallback deadline: a positive
// soft_timeout_ms wins, a negative one disables, zero inherits
// Config.SoftTimeout.
func (s *Server) softDeadline(softMs int64) time.Duration {
	switch {
	case softMs > 0:
		return time.Duration(softMs) * time.Millisecond
	case softMs < 0:
		return 0
	}
	return s.cfg.SoftTimeout
}

// degradeEligible reports whether a request may be answered by the degraded
// 2-approx: only solves that asked for a stronger tier degrade (an approx
// request already IS the fallback).
func (s *Server) degradeEligible(opts ccsched.Options) bool {
	return opts.Tier != ccsched.TierApprox
}

// respondDegradedDirect answers a request the admission queue just refused
// with the degraded 2-approx, keyed and job-tracked like an admitted one.
func (s *Server) respondDegradedDirect(w http.ResponseWriter, r *http.Request, in *ccsched.Instance, opts ccsched.Options, trace bool) {
	canon, opts, k := s.prepare(in, opts)
	out := s.degradedOutcome(k, canon.in, opts)
	s.mu.Lock()
	id := s.addJobLocked(k, canon.perm, trace)
	s.mu.Unlock()
	s.respondOutcome(w, r, &submission{id: id, perm: canon.perm}, &out, false, trace)
}

// awaitFlight blocks one attached request on its flight until completion,
// the soft deadline, the wait budget, or client disconnect, and answers
// through reply — with the finished or degraded outcome, or with nil for the
// 202 of a flight that outlived the wait budget (pinned, so a later poll
// picks its result up). It serves one-shot solves, job polls and session
// re-solves alike.
//
// The soft deadline arms only where degradation makes sense: a synchronous
// non-approx one-shot whose budget outlives it. Such a waiter is answered
// with the degraded 2-approx when its soft deadline fires first (the full
// solve keeps running and publishes for later requests), and also when the
// flight dies at its deadline first — a coalesced joiner inherits its
// creator's deadline but keeps the degraded answer its own soft deadline
// armed.
func (s *Server) awaitFlight(w http.ResponseWriter, r *http.Request, f *flight, wait, soft time.Duration, reply func(*outcome)) {
	timer := time.NewTimer(wait)
	defer timer.Stop()
	var softC <-chan time.Time
	if soft > 0 && soft < wait && f.run == nil && s.degradeEligible(f.opts) {
		st := time.NewTimer(soft)
		defer st.Stop()
		softC = st.C
	}
	select {
	case <-f.done:
		s.detach(f)
		if softC == nil || !errors.Is(f.err, context.DeadlineExceeded) {
			reply(&outcome{res: f.res, err: f.err, elapsed: f.elapsed})
			return
		}
	case <-softC:
		// Pin the full solve so it still publishes (and retires the degraded
		// answer) for later requests.
		s.pin(f)
		s.detach(f)
	case <-timer.C:
		// The client outwaited its budget but may poll later: keep the
		// solve alive even though this waiter leaves.
		s.pin(f)
		s.detach(f)
		reply(nil)
		return
	case <-r.Context().Done():
		// Client gone: detach, which cancels the solve if nobody else is
		// interested. The status line is moot (nobody reads it).
		s.detach(f)
		writeError(w, statusClientClosedRequest, "client closed request")
		return
	}
	setOutcome(r, "degraded")
	out := s.degradedOutcome(f.key, f.in, f.opts)
	reply(&out)
}

// flightStatus reports queued/running for a live flight.
func (s *Server) flightStatus(f *flight) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.running {
		return StatusRunning
	}
	return StatusQueued
}

// respondOutcome renders one submission's answer: a finished solve (cached
// when it came straight from the result LRU) in the submitter's job order,
// or — out nil — the 202 of a flight still queued or running.
func (s *Server) respondOutcome(w http.ResponseWriter, r *http.Request, sub *submission, out *outcome, cached, trace bool) {
	if out == nil {
		writeJSON(w, http.StatusAccepted, SolveResponse{
			ID: sub.id, Status: s.flightStatus(sub.flight), Coalesced: sub.coalesced,
			RequestID: requestID(r),
		})
		return
	}
	code, status, res, msg := s.finish(w, *out, sub.perm, trace)
	s.writeSolveResponse(w, code, SolveResponse{
		ID: sub.id, Status: status, Result: res, Error: msg,
		SolveMs: float64(out.elapsed) / float64(time.Millisecond), Coalesced: sub.coalesced, Cached: cached,
	})
}

// finish renders the parts of a finished outcome that every response shape
// carries: the HTTP status, the Status* value, and either the error message
// or the canonical result remapped into perm's job order. Without trace the
// span timeline is stripped from the remap copy (the cached canonical result
// keeps its trace for the debug ring).
func (s *Server) finish(w http.ResponseWriter, out outcome, perm []int, trace bool) (code int, status string, res *ccsched.Result, msg string) {
	if out.err != nil {
		return s.errorStatus(w, out.err), StatusError, nil, out.err.Error()
	}
	res = remapResult(out.res, perm)
	if !trace {
		res.Trace = nil
	}
	return http.StatusOK, StatusDone, res, ""
}

// handleJob reports or awaits the state of a prior submission.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r, 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id := r.PathValue("id")
	s.mu.Lock()
	je, ok := s.jobs.get(id)
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	// The submission's trace choice sticks to the job; ?trace=1 on the poll
	// also works.
	trace := wantTrace(r, je.trace)
	sub := &submission{id: id, perm: je.perm}
	if out, ok := s.results.get(je.key); ok {
		s.mu.Unlock()
		setOutcome(r, "cache-hit")
		s.respondOutcome(w, r, sub, &out, true, trace)
		return
	}
	f, live := s.flights[je.key]
	if live && wait > 0 {
		f.waiters++ // attach under the same lock that found the flight
	}
	s.mu.Unlock()
	if !live {
		// Finished but not cached — only cancellations end up here.
		writeError(w, http.StatusNotFound, "job %q expired (canceled or evicted); resubmit", id)
		return
	}
	sub.flight = f
	reply := func(out *outcome) { s.respondOutcome(w, r, sub, out, false, trace) }
	if wait == 0 {
		reply(nil)
		return
	}
	// Job polls never degrade (soft = 0): the client explicitly chose to wait
	// for the full answer.
	s.awaitFlight(w, r, f, wait, 0, reply)
}

// handleHealth serves liveness plus queue gauges. It answers 200 for as long
// as the process can serve HTTP at all — draining included (the status field
// says so) — so orchestrators do not kill a server that is busy flushing
// snapshots. Readiness gating lives at /readyz.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	resp := HealthResponse{
		Status:        "ok",
		Workers:       s.cfg.Workers,
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
	}
	if closed {
		resp.Status = "draining"
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleReady serves readiness: 503 (with Retry-After and the reasons) while
// the server is draining, while the admission queue is over 90% full, or
// while checkpointing is degraded to in-memory-only; 200 otherwise. Load
// balancers use it to steer traffic away without killing the process.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	resp := ReadyResponse{
		Ready:         true,
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
	}
	if closed {
		resp.Reasons = append(resp.Reasons, "draining")
	}
	if resp.QueueDepth*10 > resp.QueueCapacity*9 {
		resp.Reasons = append(resp.Reasons, "admission queue over 90% full")
	}
	if s.persistDegraded.Load() {
		resp.Reasons = append(resp.Reasons, "checkpointing degraded to in-memory-only")
	}
	if len(resp.Reasons) > 0 {
		resp.Ready = false
		setRetryAfter(w, retryAfterDraining)
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleFaultsList serves the fault registry: every armed point with its
// spec and per-point fire count.
func (s *Server) handleFaultsList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, FaultsResponse{Armed: faultinject.List()})
}

// handleFaultsArm arms the spec strings in the request body on top of
// whatever is already armed (PUT with {"specs": "point=mode[:arg][*hits],..."}).
func (s *Server) handleFaultsArm(w http.ResponseWriter, r *http.Request) {
	var req FaultsRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if err := faultinject.ArmSpecs(req.Specs); err != nil {
		writeError(w, http.StatusBadRequest, "arming faults: %v", err)
		return
	}
	s.logger.Warn("fault injection armed", "specs", req.Specs)
	s.handleFaultsList(w, r)
}

// handleFaultsClear disarms every fault (DELETE).
func (s *Server) handleFaultsClear(w http.ResponseWriter, r *http.Request) {
	faultinject.Reset()
	s.logger.Warn("fault injection cleared")
	s.handleFaultsList(w, r)
}

// handleMetrics serves the MetricsSnapshot: JSON by default, Prometheus
// text exposition when the request negotiates it (?format=prom, or an
// Accept header preferring text/plain — what a Prometheus scraper sends).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.Metrics()
	prom := r.URL.Query().Get("format") == "prom"
	if !prom {
		accept := r.Header.Get("Accept")
		prom = strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
	}
	if !prom {
		writeJSON(w, http.StatusOK, m)
		return
	}
	w.Header().Set("Content-Type", promContentType)
	w.WriteHeader(http.StatusOK)
	renderProm(w, m)
}
