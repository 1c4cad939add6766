// The anytime serving tier. A session created with options.tier "anytime"
// answers every HTTP request inline with the session's current best — the
// millisecond 2-approx right after create or a delta, a refined PTAS rung
// later — and refines in the background: a ccsched.Ladder steps through the
// descending ε-ladder inside a dedicated low-priority refinement pool
// (Config.RefineWorkers, separate from the interactive solve pool, so
// refinement never starves interactive solves), publishing each improvement
// as a WatchEvent on GET /v1/sessions/{id}/watch.
//
// Anytime sessions bypass the flight pipeline entirely: the result LRU and
// singleflight coalescing assume one immutable result per request key, while
// an anytime session's answer evolves rung by rung.
//
// Budgets: each refinement rung spends one token of the session tenant's
// bucket (Config.RefineBudgetPerSec tokens/second, tenant from the create
// request's X-Tenant-Id header). An empty bucket parks the ladder — metered
// via refine_budget_exhausted_total and the refine_parked gauge — and the
// nudger re-enqueues it once tokens refill, so a noisy tenant's refinement
// is rate-limited without ever blocking a refine worker.
//
// Event generations: every published event carries a per-session generation,
// strictly increasing and never reused across restarts. With a state
// directory, the generation is reserved in a sidecar file (<id>.gen, atomic
// temp+rename+fsync) before the event becomes visible; a crash between
// reservation and publish skips a generation, never duplicates one, so a
// reconnect with Last-Event-ID after a kill -9 restart resumes without
// duplicate generations.
package server

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"ccsched"
)

// watchRingCap bounds the per-session replay ring. Events are full-state
// snapshots, so a reconnect that outran the ring loses only intermediate
// gap readings, never the current best.
const watchRingCap = 64

// defaultTenant labels sessions whose create request carried no X-Tenant-Id.
const defaultTenant = "default"

// refineNudgeInterval is how often parked ladders retry admission: budget
// tokens refill continuously, so a parked ladder only needs a periodic poke.
const refineNudgeInterval = 250 * time.Millisecond

// genExt is the extension of the per-session event-generation sidecar file.
const genExt = ".gen"

// anytimeRun is one anytime session's server-side refinement state. The
// ladder itself serializes its solves; mu guards the publication state
// (replay ring, generation, queue flags) and is never held across a solve.
type anytimeRun struct {
	sv     *svcSession
	ladder *ccsched.Ladder
	tenant string

	mu      sync.Mutex
	events  []WatchEvent  // replay ring: the last watchRingCap published events
	lastGen uint64        // highest event generation assigned (reserved on disk first)
	notify  chan struct{} // closed and replaced on every publish (and on death)
	queued  bool          // on refineQ or inside a refine worker right now
	parked  bool          // waiting for budget tokens or queue room; the nudger retries
	dead    bool          // session dropped: queued entries drain as no-ops
	// stepCancel aborts the in-flight rung (a delta superseded it, or the
	// session was dropped); the ladder position survives cancellation.
	stepCancel context.CancelFunc
}

// newAnytimeRun builds the refinement state for one anytime session.
// lastGen is the persisted generation floor (0 for a fresh session).
func (s *Server) newAnytimeRun(sv *svcSession, tenant string, lastGen uint64) *anytimeRun {
	if tenant == "" {
		tenant = defaultTenant
	}
	return &anytimeRun{
		sv:      sv,
		ladder:  ccsched.NewLadder(sv.sess),
		tenant:  tenant,
		lastGen: lastGen,
		notify:  make(chan struct{}),
	}
}

// armAnytime attaches refinement state to a TierAnytime session (a no-op for
// every other tier). Call before the session becomes visible to handlers (or
// under s.mu): sv.any is read without locks afterwards. The generation floor
// and — absent an explicit tenant — the tenant come from the sidecar, so a
// restored session never reuses an event generation.
func (s *Server) armAnytime(sv *svcSession, tenant string) {
	if sv.opts.Tier != ccsched.TierAnytime {
		return
	}
	floor, sidecarTenant := s.readGenSidecar(sv.id)
	if tenant == "" {
		tenant = sidecarTenant
	}
	sv.any = s.newAnytimeRun(sv, tenant, floor)
}

// enqueueRefine hands ar to the refinement pool unless it is already queued
// or dead. The send is non-blocking: a saturated queue parks the run and the
// nudger retries, so session handlers never block on refinement backpressure.
func (s *Server) enqueueRefine(ar *anytimeRun) {
	if ar == nil {
		return
	}
	ar.mu.Lock()
	if ar.queued || ar.dead {
		ar.mu.Unlock()
		return
	}
	ar.queued = true
	if ar.parked {
		ar.parked = false
		s.met.refineParked.Add(-1)
	}
	ar.mu.Unlock()
	select {
	case s.refineQ <- ar:
	default:
		s.parkRefine(ar)
	}
}

// parkRefine marks ar parked (idempotently) so the nudger re-enqueues it.
func (s *Server) parkRefine(ar *anytimeRun) {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	ar.queued = false
	if !ar.parked && !ar.dead {
		ar.parked = true
		s.met.refineParked.Add(1)
	}
}

// refineWorker executes ladder rungs off the refinement queue until
// Shutdown closes refineStop. In-flight rungs survive the stop signal and
// are canceled by the drain grace via baseCtx, like interactive solves.
func (s *Server) refineWorker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.refineStop:
			return
		case ar := <-s.refineQ:
			s.refineStep(ar)
		}
	}
}

// refineStep runs one ladder rung for ar: budget admission, the solve, the
// publish, and the re-enqueue when rungs remain.
func (s *Server) refineStep(ar *anytimeRun) {
	ar.mu.Lock()
	if ar.dead {
		ar.queued = false
		ar.mu.Unlock()
		return
	}
	ar.mu.Unlock()
	if !s.refineBudgetTake(ar.tenant) {
		s.met.refineBudgetExhausted.Add(1)
		s.parkRefine(ar)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	ar.mu.Lock()
	ar.stepCancel = cancel
	ar.mu.Unlock()

	res, done, err := ar.ladder.Step(ctx)
	cancel()

	ar.mu.Lock()
	ar.stepCancel = nil
	ar.queued = false
	dead := ar.dead
	ar.mu.Unlock()
	if dead {
		return
	}
	switch {
	case err == nil:
		s.met.refineRungs.Add(1)
		if res != nil {
			s.publishWatchEvent(ar, res)
		}
		if !done {
			s.enqueueRefine(ar)
		}
	case ctx.Err() != nil:
		// The rung was canceled: a delta superseded it (the ladder rebinds to
		// the new generation on the next step) or the server is draining (the
		// re-enqueued entry is never picked up). Either way, re-enqueue.
		s.enqueueRefine(ar)
	default:
		// A real solve failure. The session still serves its current best;
		// the next delta restarts the ladder from a fresh first answer.
		s.logger.Warn("anytime refinement failed", "session", ar.sv.id, "err", err)
	}
}

// publishWatchEvent assigns the next event generation, reserves it on disk,
// appends the event to the replay ring and wakes every subscriber.
func (s *Server) publishWatchEvent(ar *anytimeRun, res *ccsched.Result) {
	if res == nil || res.Anytime == nil {
		return
	}
	ev := WatchEvent{
		SessionID:  ar.sv.id,
		Rung:       res.Anytime.Rung,
		Rungs:      res.Anytime.Rungs,
		Epsilon:    res.Anytime.Epsilon,
		Gap:        res.Anytime.Gap,
		Final:      res.Anytime.Final,
		Makespan:   res.Makespan.RatString(),
		LowerBound: res.LowerBound.RatString(),
		Result:     res,
	}
	ar.mu.Lock()
	defer ar.mu.Unlock()
	if ar.dead {
		return
	}
	ev.Generation = ar.lastGen + 1
	// Reserve the generation before anything observes it: a crash after the
	// sidecar write skips a generation on restart, never duplicates one.
	if err := s.writeGenSidecar(ar.sv.id, ev.Generation, ar.tenant); err != nil {
		s.logger.Warn("anytime generation sidecar write failed", "session", ar.sv.id, "err", err)
	}
	ar.lastGen = ev.Generation
	ar.events = append(ar.events, ev)
	if len(ar.events) > watchRingCap {
		ar.events = ar.events[len(ar.events)-watchRingCap:]
	}
	close(ar.notify)
	ar.notify = make(chan struct{})
	s.met.anytimeGap.observe(ev.Gap)
}

// eventsSince returns the ring events published after generation `after`,
// plus the channel closed on the next publish — the subscriber's wait
// primitive (re-read the ring after it fires).
func (ar *anytimeRun) eventsSince(after uint64) (evs []WatchEvent, wait <-chan struct{}) {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	for _, ev := range ar.events {
		if ev.Generation > after {
			evs = append(evs, ev)
		}
	}
	return evs, ar.notify
}

// isDead reports whether the session behind this run was dropped.
func (ar *anytimeRun) isDead() bool {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	return ar.dead
}

// cancelStep aborts the in-flight rung, if any. The ladder position is
// unchanged; the next Step rebinds to the session's current generation, so a
// delta handler cancels, answers inline and re-enqueues.
func (ar *anytimeRun) cancelStep() {
	ar.mu.Lock()
	cancel := ar.stepCancel
	ar.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// dropRefine marks a dropped session's refinement dead: queued entries drain
// as no-ops, the in-flight rung is canceled, and subscribers wake so their
// streams can end.
func dropRefine(s *Server, ar *anytimeRun) {
	if ar == nil {
		return
	}
	ar.mu.Lock()
	ar.dead = true
	if ar.parked {
		ar.parked = false
		s.met.refineParked.Add(-1)
	}
	cancel := ar.stepCancel
	close(ar.notify)
	ar.notify = make(chan struct{})
	ar.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// refineNudger periodically re-enqueues parked ladders — the retry path for
// both budget exhaustion (tokens refill with time) and momentary refinement
// queue saturation.
func (s *Server) refineNudger() {
	defer s.wg.Done()
	t := time.NewTicker(refineNudgeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.refineStop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		runs := make([]*anytimeRun, 0, len(s.sessions))
		for _, sv := range s.sessions {
			if sv.any != nil {
				runs = append(runs, sv.any)
			}
		}
		s.mu.Unlock()
		for _, ar := range runs {
			ar.mu.Lock()
			parked := ar.parked
			ar.mu.Unlock()
			if parked {
				s.enqueueRefine(ar)
			}
		}
	}
}

// refineBudget is one tenant's refinement token bucket: rate tokens per
// second refill up to a burst of max(1, rate); a rung costs one token.
type refineBudget struct {
	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// refineBudgetTake spends one refinement token of the given tenant; false
// parks the ladder. A non-positive Config.RefineBudgetPerSec is unlimited.
func (s *Server) refineBudgetTake(tenant string) bool {
	rate := s.cfg.RefineBudgetPerSec
	if rate <= 0 {
		return true
	}
	burst := rate
	if burst < 1 {
		burst = 1
	}
	s.budgetMu.Lock()
	b := s.budgets[tenant]
	if b == nil {
		b = &refineBudget{tokens: burst, last: time.Now()}
		s.budgets[tenant] = b
	}
	s.budgetMu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	now := time.Now()
	b.tokens += now.Sub(b.last).Seconds() * rate
	if b.tokens > burst {
		b.tokens = burst
	}
	b.last = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// solveSessionAnytime answers one anytime-session request inline with the
// session's current best. Session.Solve on a TierAnytime session computes
// only the constant-factor first answer (milliseconds) when the instance is
// dirty and returns the installed best — possibly a refined rung — when it
// is not, so create and PATCH respond instantly and GET reflects every
// published improvement. The caller holds sv.mu.
func (s *Server) solveSessionAnytime(w http.ResponseWriter, r *http.Request, sv *svcSession, timeout time.Duration) {
	ctx, cancel := context.WithTimeout(s.baseCtx, s.solveTimeout(timeout, sv.timeout))
	start := time.Now()
	res, err := sv.sess.Solve(ctx)
	cancel()
	resp := SessionResponse{
		SessionID: sv.id,
		JobIDs:    sv.sess.JobIDs(),
		Machines:  sv.sess.Instance().M,
		Resolves:  sv.sess.Resolves(),
		SolveMs:   float64(time.Since(start)) / float64(time.Millisecond),
	}
	if err != nil {
		resp.Status = StatusError
		resp.Error = err.Error()
		writeJSON(w, s.errorStatus(w, err), resp)
		return
	}
	setOutcome(r, "anytime")
	resp.Status = StatusDone
	resp.Result = res
	if !wantTrace(r, sv.trace) && res.Trace != nil {
		// The installed result is shared with the ladder and subscribers:
		// strip the trace on a copy, never in place.
		cp := *res
		cp.Trace = nil
		resp.Result = &cp
	}
	writeJSON(w, http.StatusOK, resp)
}

// writeGenSidecar persists a session's watch-event generation floor and
// tenant ("<gen> <tenant>\n") atomically: temp file, fsync, rename. Without
// a state directory generations reset per process, which is exactly as
// durable as the sessions themselves.
func (s *Server) writeGenSidecar(id string, gen uint64, tenant string) error {
	if s.cfg.StateDir == "" {
		return nil
	}
	data := []byte(strconv.FormatUint(gen, 10) + " " + tenant + "\n")
	tmp := filepath.Join(s.cfg.StateDir, id+genExt+".tmp")
	final := filepath.Join(s.cfg.StateDir, id+genExt)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// readGenSidecar reads a session's persisted generation floor and tenant;
// missing or damaged sidecars restore conservatively as (0, default) — safe
// only because snapshots and sidecars live and die together (removeSnapshot
// deletes both).
func (s *Server) readGenSidecar(id string) (gen uint64, tenant string) {
	tenant = defaultTenant
	if s.cfg.StateDir == "" {
		return 0, tenant
	}
	data, err := os.ReadFile(filepath.Join(s.cfg.StateDir, id+genExt))
	if err != nil {
		return 0, tenant
	}
	fields := strings.Fields(string(data))
	if len(fields) >= 1 {
		if g, err := strconv.ParseUint(fields[0], 10, 64); err == nil {
			gen = g
		}
	}
	if len(fields) >= 2 {
		tenant = fields[1]
	}
	return gen, tenant
}
