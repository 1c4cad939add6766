// Scheduling sessions over HTTP: a session holds a live instance plus its
// feasibility cache (ccsched.Session) on the server, and clients send
// deltas instead of full instances:
//
//	POST   /v1/sessions        {instance, options, timeout_ms} → create + solve
//	PATCH  /v1/sessions/{id}   {add, remove, resize, set_machines, set_slots}
//	                           → apply deltas + incremental re-solve
//	GET    /v1/sessions/{id}   → current schedule (re-solving if needed)
//	DELETE /v1/sessions/{id}   → drop the session and its cache
//
// Session re-solves run through the same pipeline as /v1/solve: the current
// instance is canonicalized, the result LRU and in-flight coalescing are
// consulted first (a re-solve identical to anything already solved — by a
// one-shot request or another session — costs nothing), and misses are
// admitted into the bounded worker queue under the same deadline plumbing;
// the flight's runner executes the session's re-solve (a ccsched.Solve over
// the session's kept cache) and publishes the result in canonical order, so
// one-shot requests coalesce onto session flights and vice versa. The
// session parity invariant (re-solve makespan ≡ cold solve of the mutated
// instance, proven by the ccsched differential tests) is what makes this
// sharing sound.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ccsched"
)

// svcSession is one live server-side session. mu serializes delta
// application and re-solves (a re-solve sees the instance exactly as the
// deltas before it left it); concurrent PATCHes to the same session queue up behind it.
type svcSession struct {
	id string

	mu      sync.Mutex
	sess    *ccsched.Session
	opts    ccsched.Options // sanitized; part of every re-solve's request key
	timeout time.Duration   // default per-re-solve deadline from create
	// trace, set at create (?trace=1 or options.trace), keeps every
	// re-solve's span timeline in this session's responses; individual
	// requests can still opt in per-call with ?trace=1.
	trace bool

	// any is the anytime refinement state of a TierAnytime session (nil for
	// every other tier). Set before the session becomes visible and never
	// reassigned, so handlers read it without a lock.
	any *anytimeRun

	// ckptGen/ckptRes are the session generation and resolve count captured
	// by the last successful checkpoint; the checkpointer skips sessions
	// where both still match. Generation alone is not enough — the cache
	// gains verdicts on solves, which do not bump the generation, so a
	// checkpoint taken between a delta and its re-solve must leave the
	// session dirty for the next tick. Atomics so the checkpointer never
	// waits behind a re-solve holding mu.
	ckptGen atomic.Uint64
	ckptRes atomic.Int64
}

// ErrTooManySessions reports that Config.MaxSessions live sessions already
// exist; the HTTP layer maps it to 429.
var ErrTooManySessions = errors.New("server: too many live sessions")

// createSession registers a new session under the cap. tenant labels a
// TierAnytime session's refinement budget bucket (ignored otherwise).
func (s *Server) createSession(in *ccsched.Instance, opts ccsched.Options, timeout time.Duration, tenant string) (*svcSession, error) {
	if in.N() > s.cfg.MaxJobs {
		return nil, fmt.Errorf("%w: %d jobs > %d", ErrInstanceTooLarge, in.N(), s.cfg.MaxJobs)
	}
	opts = sanitizeOptions(opts, s.traces != nil)
	// Sessions carry their own feasibility cache (created by NewSession) so
	// guess verdicts stay hot under the session key and die with it; the
	// wire cannot name a cache, so clear whatever decoding left.
	opts.Cache = nil
	sess, err := ccsched.NewSession(in, opts)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrShuttingDown
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return nil, fmt.Errorf("%w: %d live", ErrTooManySessions, len(s.sessions))
	}
	// Mint past ids already taken by restored or imported sessions.
	var id string
	for {
		s.sessionSeq++
		id = fmt.Sprintf("s-%016x", s.sessionSeq)
		if _, taken := s.sessions[id]; !taken {
			break
		}
	}
	sv := &svcSession{
		id:      id,
		sess:    sess,
		opts:    opts,
		timeout: s.solveTimeout(timeout, s.cfg.DefaultTimeout),
	}
	s.armAnytime(sv, tenant)
	s.sessions[sv.id] = sv
	s.met.sessionsCreated.Add(1)
	return sv, nil
}

// dropSession removes a session; reports whether it existed.
func (s *Server) dropSession(id string) bool {
	s.mu.Lock()
	sv, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	delete(s.sessions, id)
	s.removeSnapshot(id)
	s.mu.Unlock()
	dropRefine(s, sv.any)
	return true
}

// lookupSession finds a live session.
func (s *Server) lookupSession(id string) (*svcSession, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sv, ok := s.sessions[id]
	return sv, ok
}

// handleSessionCreate creates a session and answers its initial solve.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r, defaultWait)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	var req SessionCreateRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.Instance == nil {
		writeError(w, http.StatusBadRequest, "missing \"instance\"")
		return
	}
	s.met.requests.Add(1)
	tenant := r.Header.Get("X-Tenant-Id")
	sv, err := s.createSession(req.Instance, req.Options, time.Duration(req.TimeoutMs)*time.Millisecond, tenant)
	if err != nil {
		writeError(w, s.errorStatus(w, err), "%v", err)
		return
	}
	sv.trace = wantTrace(r, req.Options.Trace)
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.any != nil {
		// Anytime sessions bypass the flight pipeline: the first answer is
		// the millisecond 2-approx, solved inline, and the refinement pool
		// takes over in the background the moment the response is written.
		s.solveSessionAnytime(w, r, sv, 0)
		s.enqueueRefine(sv.any)
		return
	}
	// The session outlives an initial-solve admission failure (queue full):
	// the client holds the id and retries the solve with GET. Sessions are
	// bounded by MaxSessions and freed by DELETE either way.
	s.solveSession(w, r, sv, 0, wait)
}

// handleSessionPatch applies a delta batch and answers the re-solve.
func (s *Server) handleSessionPatch(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r, defaultWait)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sv, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	var delta SessionDelta
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&delta); err != nil {
		writeError(w, http.StatusBadRequest, "decoding delta: %v", err)
		return
	}
	s.met.requests.Add(1)
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if err := s.applyDelta(sv, &delta); err != nil {
		// Beyond MaxJobs is refused like any oversized instance; anything
		// else is a malformed delta (unknown id, bad size): the client's
		// mistake, reported as such.
		status := http.StatusBadRequest
		if errors.Is(err, ErrInstanceTooLarge) {
			status = http.StatusUnprocessableEntity
		}
		writeJSON(w, status, SessionResponse{SessionID: sv.id, Status: StatusError, Error: err.Error()})
		return
	}
	if sv.any != nil {
		// The delta bumped the session generation: cancel the in-flight rung
		// (its result belongs to a dead generation and would be discarded
		// anyway), answer with the fresh 2-approx inline, and restart the
		// ladder — the next Step rebinds to the new generation automatically.
		sv.any.cancelStep()
		s.solveSessionAnytime(w, r, sv, time.Duration(delta.TimeoutMs)*time.Millisecond)
		s.enqueueRefine(sv.any)
		return
	}
	// An admission failure leaves the deltas applied — the session is the
	// durable state, the solve is retryable via GET (or the next PATCH).
	s.solveSession(w, r, sv, time.Duration(delta.TimeoutMs)*time.Millisecond, wait)
}

// handleSessionGet reports the current schedule, re-solving when pending
// deltas exist (e.g. after an earlier re-solve was canceled or rejected).
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	wait, err := parseWait(r, defaultWait)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sv, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	s.met.requests.Add(1)
	sv.mu.Lock()
	defer sv.mu.Unlock()
	if sv.any != nil {
		s.solveSessionAnytime(w, r, sv, 0)
		return
	}
	s.solveSession(w, r, sv, 0, wait)
}

// handleSessionDelete drops a session.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.dropSession(id) {
		writeError(w, http.StatusNotFound, "unknown session %q", id)
		return
	}
	writeJSON(w, http.StatusOK, SessionResponse{SessionID: id, Status: "deleted"})
}

// applyDelta validates and applies one delta batch; caller holds sv.mu.
// Validation failures reject the whole batch only when they hit the first
// failing operation — operations are applied in add, resize, remove,
// machines, slots order, and each sub-batch is all-or-nothing.
func (s *Server) applyDelta(sv *svcSession, d *SessionDelta) error {
	if len(d.Add) > 0 {
		n := len(sv.sess.JobIDs()) + len(d.Add)
		if n > s.cfg.MaxJobs {
			return fmt.Errorf("%w: %d jobs > %d", ErrInstanceTooLarge, n, s.cfg.MaxJobs)
		}
		p := make([]int64, len(d.Add))
		class := make([]int, len(d.Add))
		for i, a := range d.Add {
			p[i], class[i] = a.P, a.Class
		}
		if _, err := sv.sess.AddJobs(p, class); err != nil {
			return err
		}
	}
	for _, rs := range d.Resize {
		if err := sv.sess.Resize(rs.ID, rs.P); err != nil {
			return err
		}
	}
	if len(d.Remove) > 0 {
		if err := sv.sess.RemoveJobs(d.Remove...); err != nil {
			return err
		}
	}
	if d.SetMachines != 0 {
		if err := sv.sess.SetMachines(d.SetMachines); err != nil {
			return err
		}
	}
	if d.SetSlots != 0 {
		if err := sv.sess.SetSlots(d.SetSlots); err != nil {
			return err
		}
	}
	return nil
}

// solveSession runs one session re-solve through the shared admission step
// and wait path (result LRU → coalesce → bounded queue → worker) and writes
// the response in the session shape. The caller holds sv.mu for the whole
// call, serializing the session. timeout zero selects the session's default.
// An admission failure (queue full, draining) is reported to the client and
// leaves the session's pending deltas durable — GET retries the solve.
func (s *Server) solveSession(w http.ResponseWriter, r *http.Request, sv *svcSession, timeout time.Duration, wait time.Duration) {
	// Snapshot the state this request is about: the request key, the remap
	// permutation, the job ids of the response, and — crucially — the
	// instance a queued flight will solve. Once sv.mu is released (a waiter
	// outliving its budget leaves the flight pinned in the queue), later
	// deltas may mutate the session; the generation-checked SolveSnapshot
	// keeps the flight's published result consistent with its key anyway.
	cur, ids, gen := sv.sess.Snapshot()
	canon := canonicalize(cur)
	inv := invertPerm(canon.perm)
	run := func(ctx context.Context) (*ccsched.Result, error) {
		// Solve the snapshot, not whatever the session holds by the time a
		// worker gets here: the flight's key, permutation and any coalesced
		// one-shot waiters are all about the snapshot.
		res, err := sv.sess.SolveSnapshot(ctx, cur, gen)
		if err != nil {
			return nil, err
		}
		// Publish in canonical order so one-shot requests for the same
		// canonical instance can share this flight and the LRU entry.
		return remapResult(res, inv), nil
	}
	s.mu.Lock()
	sub, err := s.admitLocked(requestKey(canon.in, sv.opts), canon, sv.opts, s.solveTimeout(timeout, sv.timeout), run, false)
	s.mu.Unlock()
	if err != nil {
		writeJSON(w, s.errorStatus(w, err), SessionResponse{SessionID: sv.id, Status: StatusError, Error: err.Error()})
		return
	}
	noteAdmission(r, sub)
	trace := wantTrace(r, sv.trace)
	// respond renders a finished re-solve remapped into the snapshot's job
	// order, or — out nil — the 202 of a re-solve a later GET picks up.
	respond := func(out *outcome, cached bool) {
		if out == nil {
			writeJSON(w, http.StatusAccepted, SessionResponse{SessionID: sv.id, Status: s.flightStatus(sub.flight), RequestID: requestID(r)})
			return
		}
		code, status, res, msg := s.finish(w, *out, canon.perm, trace)
		writeJSON(w, code, SessionResponse{
			SessionID: sv.id, Status: status, Result: res, Error: msg,
			JobIDs: ids, Machines: cur.M, Resolves: sv.sess.Resolves(),
			SolveMs: float64(out.elapsed) / float64(time.Millisecond), Coalesced: sub.coalesced, Cached: cached,
		})
	}
	if sub.done != nil {
		respond(sub.done, true)
		return
	}
	s.awaitFlight(w, r, sub.flight, wait, 0, func(out *outcome) { respond(out, false) })
}
