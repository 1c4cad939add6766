package server

import (
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
// for later requests (which then get the full answer).
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

// setRetryAfter attaches a Retry-After header (whole seconds, minimum 1) —
// clients like ccload honor it instead of their own backoff.
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
	var req SolveRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
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
	switch {
	case errors.Is(err, ErrQueueFull):
		// Admission saturation with a soft deadline armed: answer with the
		// millisecond 2-approx instead of bouncing the client.
		if soft > 0 && s.degradeEligible(req.Options) {
			setOutcome(r, "degraded")
			s.respondDegradedDirect(w, req.Instance, req.Options, trace)
			return
		}
		setRetryAfter(w, retryAfterQueueFull)
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrShuttingDown):
		setRetryAfter(w, retryAfterDraining)
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case errors.Is(err, ErrQuarantined):
		setRetryAfter(w, s.cfg.PanicQuarantineTTL)
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	case errors.Is(err, ErrInstanceTooLarge):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if sub.done != nil {
		setOutcome(r, "cache-hit")
		s.respondOutcome(w, sub, *sub.done, true, trace)
		return
	}
	if sub.coalesced {
		setOutcome(r, "coalesced")
	} else {
		setOutcome(r, "admitted")
	}
	if wait == 0 {
		writeJSON(w, http.StatusAccepted, SolveResponse{
			ID: sub.id, Status: s.flightStatus(sub.flight), Coalesced: sub.coalesced,
			RequestID: requestID(r),
		})
		return
	}
	s.awaitFlight(w, r, sub, wait, soft, trace)
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

// respondDegradedDirect canonicalizes the instance outside the admission
// pipeline (which just refused it) and answers with the degraded 2-approx.
func (s *Server) respondDegradedDirect(w http.ResponseWriter, in *ccsched.Instance, opts ccsched.Options, trace bool) {
	canon := canonicalize(in)
	opts = sanitizeOptions(opts, s.traces != nil)
	if !opts.NoCache {
		opts.Cache = s.cfg.Cache
	} else {
		opts.Cache = nil
	}
	k := requestKey(canon.in, opts)
	out := s.degradedOutcome(k, canon.in, opts)
	s.mu.Lock()
	id := s.addJobLocked(k, canon.perm, trace)
	s.mu.Unlock()
	s.respondOutcome(w, &submission{id: id, perm: canon.perm}, out, false, trace)
}

// awaitFlight blocks one attached request on its flight until completion,
// the soft deadline (degraded answer; the full solve keeps running), the
// wait budget, or client disconnect, and responds accordingly.
func (s *Server) awaitFlight(w http.ResponseWriter, r *http.Request, sub *submission, wait, soft time.Duration, trace bool) {
	f := sub.flight
	timer := time.NewTimer(wait)
	defer timer.Stop()
	// The soft deadline arms only where degradation makes sense: a synchronous
	// non-approx one-shot whose budget outlives it.
	var softC <-chan time.Time
	if soft > 0 && soft < wait && !f.session && s.degradeEligible(f.opts) {
		st := time.NewTimer(soft)
		defer st.Stop()
		softC = st.C
	}
	select {
	case <-f.done:
		s.detach(f)
		s.respondOutcome(w, sub, outcome{res: f.res, err: f.err, elapsed: f.elapsed}, false, trace)
	case <-softC:
		// Serve the fallback now; pin the full solve so it still publishes
		// (and retires this degraded answer) for later requests.
		s.pin(f)
		s.detach(f)
		setOutcome(r, "degraded")
		s.respondOutcome(w, sub, s.degradedOutcome(f.key, f.in, f.opts), false, trace)
	case <-timer.C:
		// The client outwaited its budget but may poll later: keep the
		// solve alive even though this waiter leaves.
		s.pin(f)
		s.detach(f)
		writeJSON(w, http.StatusAccepted, SolveResponse{
			ID: sub.id, Status: s.flightStatus(f), Coalesced: sub.coalesced,
			RequestID: requestID(r),
		})
	case <-r.Context().Done():
		// Client gone: detach, which cancels the solve if nobody else is
		// interested. The status line is moot (nobody reads it).
		s.detach(f)
		writeError(w, statusClientClosedRequest, "client closed request")
	}
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

// respondOutcome renders a finished solve for one submission, remapping the
// canonical result into the submitter's job order. trace keeps the span
// timeline in the response; without it the trace is stripped from the remap
// copy (the cached canonical result keeps its trace for the debug ring).
func (s *Server) respondOutcome(w http.ResponseWriter, sub *submission, out outcome, cached, trace bool) {
	ms := float64(out.elapsed) / float64(time.Millisecond)
	if out.err != nil {
		writeJSON(w, solveErrorStatus(out.err), SolveResponse{
			ID: sub.id, Status: StatusError, Error: out.err.Error(),
			SolveMs: ms, Coalesced: sub.coalesced, Cached: cached,
		})
		return
	}
	res := remapResult(out.res, sub.perm)
	if !trace {
		res.Trace = nil
	}
	writeJSON(w, http.StatusOK, SolveResponse{
		ID: sub.id, Status: StatusDone, Result: res,
		SolveMs: ms, Coalesced: sub.coalesced, Cached: cached,
	})
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
	if out, ok := s.results.get(je.key); ok {
		s.mu.Unlock()
		setOutcome(r, "cache-hit")
		s.respondOutcome(w, &submission{id: id, perm: je.perm}, out, true, trace)
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
	if wait == 0 {
		writeJSON(w, http.StatusAccepted, SolveResponse{ID: id, Status: s.flightStatus(f), RequestID: requestID(r)})
		return
	}
	// Job polls never degrade (soft = 0): the client explicitly chose to wait
	// for the full answer.
	s.awaitFlight(w, r, &submission{id: id, perm: je.perm, flight: f}, wait, 0, trace)
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
