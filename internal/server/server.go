// Package server implements ccserved's scheduling service: a batching,
// deduplicating request pipeline on top of the context-aware ccsched.Solve.
//
// The pipeline is:
//
//	HTTP request
//	  → decode + validate (public JSON codecs)
//	  → canonicalize (job order / class labels factored out; per-request perm)
//	  (session re-solves join here with their snapshot, through the same
//	  admission step as one-shot solves)
//	  → full-result LRU lookup ──────────────── hit → remap → respond
//	  → singleflight coalesce onto in-flight solve ─ hit → await → respond
//	  → admission: bounded queue (429 when full)
//	  → worker pool: ccsched.Solve under a per-request deadline context,
//	    all workers sharing one feasibility cache
//	  → publish: result LRU + wake all waiters → remap → respond
//
// Identical concurrent requests cost one solve; identical later requests
// cost zero. Graceful shutdown stops admitting (503), drains the queue, and
// — when the drain deadline expires — cancels in-flight solves via context,
// which ccsched.Solve honors down to individual ILP iterations.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ccsched"
	"ccsched/internal/faultinject"
	"ccsched/internal/panicsafe"
)

// SolveFunc is the solver the worker pool invokes; it defaults to
// ccsched.Solve and is injectable for tests.
type SolveFunc func(ctx context.Context, in *ccsched.Instance, opts ccsched.Options) (*ccsched.Result, error)

// Config parameterizes a Server. The zero value selects sensible defaults
// for every field.
type Config struct {
	// Workers is the solver pool size. Zero selects 4.
	Workers int
	// QueueDepth bounds the admission queue of distinct pending solves;
	// submissions beyond it are refused with 429. Zero selects 256.
	QueueDepth int
	// ResultCacheEntries bounds the full-result LRU. Zero selects 1024.
	ResultCacheEntries int
	// DefaultTimeout is the per-solve deadline applied when a request does
	// not carry its own. Zero selects 120s.
	DefaultTimeout time.Duration
	// MaxTimeout caps the wire-settable timeout_ms — without it a client
	// could reserve a worker for an arbitrary duration. Zero selects 15m.
	MaxTimeout time.Duration
	// MaxJobs bounds the job count of admitted instances. The approx tier
	// deliberately runs to completion (it is strongly polynomial but not
	// cancellable mid-solve), so admission is where instance size must be
	// policed. Zero selects 100000.
	MaxJobs int
	// MaxSessions bounds the number of live scheduling sessions (each holds
	// an instance and a private feasibility cache).
	// Creations beyond it are refused with 429 until sessions are deleted.
	// Zero selects 1024.
	MaxSessions int
	// MaxBodyBytes bounds request bodies. Zero selects 32 MiB.
	MaxBodyBytes int64
	// StateDir, when non-empty, makes sessions durable: every readable
	// session snapshot in the directory is restored on boot (unreadable or
	// stale ones are skipped with a logged reason), dirty sessions are
	// checkpointed there in the background, and a final snapshot pass runs
	// on drain. The directory is created if missing. Empty disables
	// persistence.
	StateDir string
	// CheckpointInterval is the background checkpoint cadence when StateDir
	// is set. Zero selects 30s. Ticks are skipped while the solve queue is
	// more than half full, so checkpointing never competes with admission.
	CheckpointInterval time.Duration
	// SoftTimeout is the default degraded-fallback deadline for synchronous
	// solve requests: when a non-approx solve is still running this long
	// after its waiter attached, the waiter is answered with the millisecond
	// 2-approx (certified LowerBound, degraded=true) while the full solve
	// keeps running and publishes for later requests. Requests override it
	// with soft_timeout_ms (negative disables per request). Zero disables the
	// soft deadline by default.
	SoftTimeout time.Duration
	// RefineWorkers is the anytime refinement pool size — the workers that
	// step TierAnytime sessions' ε-ladders in the background. The pool is
	// separate from Workers, so refinement never starves interactive solves.
	// Zero selects 2; negative disables background refinement (ladders stay
	// at their first answer until stepped by nothing — useful in tests).
	RefineWorkers int
	// RefineBudgetPerSec is each tenant's refinement admission budget in
	// ladder rungs per second (tenant = X-Tenant-Id at session create,
	// "default" when absent). An exhausted bucket parks the tenant's ladders
	// — metered via refine_budget_exhausted_total and the refine_parked
	// gauge — until tokens refill. Zero or negative is unlimited.
	RefineBudgetPerSec float64
	// PanicQuarantineThreshold is how many consecutive recovered-panic
	// (ccsched.ErrInternal) outcomes one request key may produce before new
	// submissions of that key are refused with 422 for
	// PanicQuarantineTTL. Zero selects 3; negative disables quarantining.
	PanicQuarantineThreshold int
	// PanicQuarantineTTL is how long a quarantined request key stays refused;
	// after the TTL one submission is let through to re-test the key. Zero
	// selects 1m.
	PanicQuarantineTTL time.Duration
	// FaultAdmin exposes the fault-injection registry at /v1/debug/faults
	// (GET lists, PUT arms spec strings, DELETE clears). Off by default;
	// never enable it on an exposed port.
	FaultAdmin bool
	// TraceRing is the capacity of the slowest-traces debug ring served at
	// GET /v1/debug/traces. While the ring is enabled every solve runs with
	// tracing on (the per-solve cost is bounded by the span cap) and the ring
	// keeps the TraceRing slowest completed solves' traces. Zero selects 16;
	// negative disables the ring, and then only requests that ask for a trace
	// (?trace=1 or options.trace) pay for one.
	TraceRing int
	// Cache is the feasibility cache shared by all workers. Nil creates a
	// fresh one (isolated from the process-wide default).
	Cache *ccsched.FeasibilityCache
	// Solver overrides the solver invoked by the workers; nil selects
	// ccsched.Solve. Tests use it to instrument and gate solves.
	Solver SolveFunc
	// Logger receives structured request and lifecycle logs. Nil discards
	// them.
	Logger *slog.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.ResultCacheEntries <= 0 {
		c.ResultCacheEntries = 1024
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 120 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 15 * time.Minute
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 100000
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.StateDir != "" && c.CheckpointInterval <= 0 {
		c.CheckpointInterval = 30 * time.Second
	}
	if c.RefineWorkers == 0 {
		c.RefineWorkers = 2
	}
	if c.RefineWorkers < 0 {
		c.RefineWorkers = 0
	}
	if c.PanicQuarantineThreshold == 0 {
		c.PanicQuarantineThreshold = 3
	}
	if c.PanicQuarantineTTL <= 0 {
		c.PanicQuarantineTTL = time.Minute
	}
	if c.TraceRing == 0 {
		c.TraceRing = 16
	}
	if c.Cache == nil {
		c.Cache = ccsched.NewFeasibilityCache()
	}
	if c.Solver == nil {
		c.Solver = ccsched.Solve
	}
	return c
}

// outcome is one finished solve in canonical form, as stored in the result
// LRU and handed to waiters.
type outcome struct {
	res     *ccsched.Result // canonical job order; nil on error
	err     error
	elapsed time.Duration
}

// flight is one admitted solve, shared by every request that coalesced onto
// it. Waiter bookkeeping happens under Server.mu; res/err are written once
// by the executing worker before done is closed.
type flight struct {
	key  key
	in   *ccsched.Instance // canonical
	opts ccsched.Options
	// run, when non-nil, replaces the configured Solver for this flight: it
	// is set exactly for session re-solves, which execute through their
	// Session and its kept cache, and labels the flight for the metrics split
	// (session_solve_latency vs solve_latency). It must return the result in
	// canonical job order, like the Solver path, so coalesced one-shot
	// waiters and the result LRU stay correct.
	run func(ctx context.Context) (*ccsched.Result, error)
	// enqueuedAt stamps the queue send; the worker's pickup delta feeds the
	// queue_wait_latency histogram.
	enqueuedAt time.Time

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	res     *ccsched.Result
	err     error
	elapsed time.Duration

	// Guarded by Server.mu: waiters is the number of attached requests;
	// pinned marks flights that must run to completion even with no waiter
	// (async submissions awaiting a later poll); running flips when a
	// worker picks the flight up.
	waiters int
	pinned  bool
	running bool
}

// Server is the scheduling service. Create with New, expose via Handler,
// stop with Shutdown.
type Server struct {
	cfg    Config
	logger *slog.Logger
	traces *traceRing
	reqSeq atomic.Uint64

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu      sync.Mutex
	closed  bool
	flights map[key]*flight
	results *lruCache[key, outcome]
	jobs    *lruCache[string, jobEntry]
	jobSeq  uint64

	sessions   map[string]*svcSession
	sessionSeq uint64

	// quarantine tracks request keys whose solves ended in recovered panics;
	// entries reset on any non-panic outcome and expire by TTL. Guarded by mu.
	quarantine map[key]*quarEntry

	queue chan *flight
	wg    sync.WaitGroup

	// refineQ feeds the anytime refinement pool; refineStop ends the refine
	// workers and the nudger on Shutdown (the queue itself stays open —
	// late enqueues land in the buffer and are simply never drained).
	// budgets holds the per-tenant refinement token buckets that have not
	// refilled to their burst; refineNudger sweeps out the full ones.
	refineQ    chan *anytimeRun
	refineStop chan struct{}
	budgetMu   sync.Mutex
	budgets    map[string]*refineBudget

	// ckptStop/ckptDone manage the background checkpointer (StateDir only):
	// Shutdown closes ckptStop once, the checkpointer closes ckptDone on
	// exit, and the final drain snapshot pass waits on ckptDone so disk
	// writes never overlap.
	ckptStop chan struct{}
	ckptDone chan struct{}

	// persistDegraded flips when snapshot writes keep failing after retries:
	// checkpointing becomes in-memory only (sessions stay dirty), /readyz
	// reports 503, and the checkpointer probes the disk each tick so
	// durability resumes without a restart. ckptFailStreak counts consecutive
	// failed session checkpoints feeding that decision.
	persistDegraded atomic.Bool
	ckptFailStreak  atomic.Int64

	met   metrics
	start time.Time
}

// quarEntry is one request key's recovered-panic streak. until is zero while
// the streak is below the quarantine threshold; once set, submissions of the
// key are refused until it passes.
type quarEntry struct {
	panics int
	until  time.Time
}

// jobEntry links a submission's job id to its unit of work, the
// permutation needed to render results in the submitter's job order, and
// whether the submission asked for its span timeline.
type jobEntry struct {
	key   key
	perm  []int
	trace bool
}

// Sentinel errors of the admission pipeline.
var (
	// ErrQueueFull reports that the bounded admission queue is at capacity;
	// the HTTP layer maps it to 429.
	ErrQueueFull = errors.New("server: admission queue full")
	// ErrShuttingDown reports that the server no longer admits work; the
	// HTTP layer maps it to 503.
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrInstanceTooLarge reports an instance beyond Config.MaxJobs; the
	// HTTP layer maps it to 422.
	ErrInstanceTooLarge = errors.New("server: instance exceeds the job limit")
	// ErrQuarantined reports that the request key produced repeated solver
	// panics and is temporarily refused; the HTTP layer maps it to 422 with
	// a Retry-After covering the quarantine TTL.
	ErrQuarantined = errors.New("server: request quarantined after repeated solver panics")
)

// New returns a started Server: its worker pool is running and its handler
// (see Handler) admits work immediately.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		logger:     logger,
		baseCtx:    ctx,
		baseCancel: cancel,
		flights:    make(map[key]*flight),
		quarantine: make(map[key]*quarEntry),
		results:    newLRU[key, outcome](cfg.ResultCacheEntries),
		jobs:       newLRU[string, jobEntry](4 * cfg.ResultCacheEntries),
		sessions:   make(map[string]*svcSession),
		queue:      make(chan *flight, cfg.QueueDepth),
		refineStop: make(chan struct{}),
		budgets:    make(map[string]*refineBudget),
		start:      time.Now(),
	}
	// Sized so every live session can queue once (the queued flag caps each
	// at one entry) with headroom for dead entries of dropped sessions; the
	// non-blocking enqueue parks on overflow either way.
	s.refineQ = make(chan *anytimeRun, 4*cfg.MaxSessions)
	if cfg.TraceRing > 0 {
		s.traces = newTraceRing(cfg.TraceRing)
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			s.logger.Warn("state dir unusable; persistence disabled", "dir", cfg.StateDir, "err", err)
			s.cfg.StateDir = ""
		} else {
			// Restore before the workers start: the session table fills while
			// nothing races it, and the handler sees every surviving session
			// from its first request.
			s.restoreSnapshots()
			s.ckptStop = make(chan struct{})
			s.ckptDone = make(chan struct{})
			go s.checkpointer()
		}
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	if cfg.RefineWorkers > 0 {
		s.wg.Add(cfg.RefineWorkers + 1)
		for i := 0; i < cfg.RefineWorkers; i++ {
			go s.refineWorker()
		}
		go s.refineNudger()
	}
	return s
}

// submission is the result of admitting one request: either a finished
// outcome (result-cache hit) or a flight to wait on, plus the request's
// remap permutation and — for one-shot requests — its job id.
type submission struct {
	id     string
	perm   []int
	done   *outcome // non-nil on a result-cache hit
	flight *flight  // non-nil otherwise
	// coalesced reports the request attached to an already-admitted solve.
	coalesced bool
}

// sanitizeOptions clamps the wire-settable Options fields that control
// resource consumption rather than results: ExplicitMachineLimit and
// HugeMThreshold bound how many machines a schedule materializes
// explicitly. Clamping happens before the request
// key is computed, so equally-sanitized requests share one solve.
// forceTrace (the trace ring's doing) turns tracing on regardless of the
// request — responses still strip the trace unless the client asked for it.
func sanitizeOptions(opts ccsched.Options, forceTrace bool) ccsched.Options {
	if forceTrace {
		opts.Trace = true
	}
	const maxExplicitMachines = 1 << 20
	if opts.ExplicitMachineLimit > maxExplicitMachines {
		opts.ExplicitMachineLimit = maxExplicitMachines
	}
	if opts.HugeMThreshold > maxExplicitMachines {
		opts.HugeMThreshold = maxExplicitMachines
	}
	return opts
}

// prepare canonicalizes one one-shot request and derives its request key.
// Workers share the server's feasibility cache unless the request explicitly
// opted out of caching.
func (s *Server) prepare(in *ccsched.Instance, opts ccsched.Options) (canonical, ccsched.Options, key) {
	canon := canonicalize(in)
	opts = sanitizeOptions(opts, s.traces != nil)
	opts.Cache = nil
	if !opts.NoCache {
		opts.Cache = s.cfg.Cache
	}
	return canon, opts, requestKey(canon.in, opts)
}

// solveTimeout resolves one solve's deadline: a positive requested timeout
// wins, otherwise def; either is capped at Config.MaxTimeout.
func (s *Server) solveTimeout(requested, def time.Duration) time.Duration {
	if requested <= 0 {
		requested = def
	}
	return min(requested, s.cfg.MaxTimeout)
}

// submit admits one decoded one-shot request and mints its pollable job id.
// timeout is the solve deadline for a newly created flight; pinned marks
// async submissions whose flight must survive having no attached waiter.
// The caller must pair every returned flight with exactly one detach call.
func (s *Server) submit(in *ccsched.Instance, opts ccsched.Options, timeout time.Duration, pinned, wantTrace bool) (*submission, error) {
	s.met.requests.Add(1)
	if in.N() > s.cfg.MaxJobs {
		return nil, fmt.Errorf("%w: %d jobs > %d", ErrInstanceTooLarge, in.N(), s.cfg.MaxJobs)
	}
	canon, opts, k := s.prepare(in, opts)
	s.mu.Lock()
	defer s.mu.Unlock()
	sub, err := s.admitLocked(k, canon, opts, s.solveTimeout(timeout, s.cfg.DefaultTimeout), nil, pinned)
	if err != nil {
		return nil, err
	}
	sub.id = s.addJobLocked(k, canon.perm, wantTrace)
	return sub, nil
}

// admitLocked is the admission step every solve passes, one-shot and session
// re-solve alike: closed check, quarantine check, result-LRU lookup,
// coalescing onto an identical in-flight solve, and the bounded enqueue of a
// fresh flight under timeout. run, non-nil for session re-solves, replaces
// the configured Solver; pinned marks the flight to run to completion with
// no waiter attached. Caller holds s.mu.
//
// Coalescing semantics: a joiner inherits the flight's existing deadline
// (set by whoever created it) — deadlines on a live context cannot be
// extended. A joiner whose own budget is larger may see the flight die at
// the creator's deadline: it gets HTTP 408, or the degraded answer when its
// own soft deadline was armed (see awaitFlight). Cancellation verdicts are
// never cached, so resubmitting simply starts a fresh solve.
func (s *Server) admitLocked(k key, canon canonical, opts ccsched.Options, timeout time.Duration, run func(context.Context) (*ccsched.Result, error), pinned bool) (*submission, error) {
	if s.closed {
		return nil, ErrShuttingDown
	}
	if err := s.quarantinedLocked(k); err != nil {
		return nil, err
	}
	if out, ok := s.results.get(k); ok {
		s.met.resultCacheHits.Add(1)
		return &submission{perm: canon.perm, done: &out}, nil
	}
	// Coalesce onto an identical in-flight solve — unless its context is
	// already dead (every earlier waiter disconnected, or its deadline
	// expired while queued): attaching there would hand this innocent
	// request a cancellation error. A dead flight stays in the map only
	// until a worker drains it; start a replacement flight instead.
	if f, ok := s.flights[k]; ok && f.ctx.Err() == nil {
		f.waiters++
		f.pinned = f.pinned || pinned
		s.met.coalesced.Add(1)
		return &submission{perm: canon.perm, flight: f, coalesced: true}, nil
	}
	fctx, fcancel := context.WithTimeout(s.baseCtx, timeout)
	f := &flight{
		key: k, in: canon.in, opts: opts, run: run,
		ctx: fctx, cancel: fcancel, done: make(chan struct{}),
		waiters: 1, pinned: pinned,
		enqueuedAt: time.Now(),
	}
	select {
	case s.queue <- f:
	default:
		fcancel()
		s.met.rejectedFull.Add(1)
		return nil, ErrQueueFull
	}
	s.flights[k] = f
	s.met.admitted.Add(1)
	return &submission{perm: canon.perm, flight: f}, nil
}

// detach releases one waiter from f. When the last waiter leaves an
// unpinned, unfinished flight — every interested client gave up — the
// flight's context is canceled so ccsched.Solve stops within an ILP
// iteration and the worker slot frees up.
func (s *Server) detach(f *flight) {
	s.mu.Lock()
	f.waiters--
	abandon := f.waiters <= 0 && !f.pinned
	s.mu.Unlock()
	if abandon {
		select {
		case <-f.done: // already finished; nothing to stop
		default:
			f.cancel()
		}
	}
}

// pin marks f to run to completion even with no attached waiter (a sync
// waiter timed out and will poll the job id later).
func (s *Server) pin(f *flight) {
	s.mu.Lock()
	f.pinned = true
	s.mu.Unlock()
}

// quarantinedLocked refuses k while its recovered-panic quarantine TTL is
// live. An expired TTL deletes the entry, letting one submission through to
// re-test the key (a clean outcome then clears the streak for good). Caller
// holds s.mu.
func (s *Server) quarantinedLocked(k key) error {
	q, ok := s.quarantine[k]
	if !ok || q.until.IsZero() {
		return nil
	}
	if rem := time.Until(q.until); rem > 0 {
		s.met.rejectedQuarantined.Add(1)
		return fmt.Errorf("%w: %d consecutive panics; retry in %s", ErrQuarantined, q.panics, rem.Round(time.Second))
	}
	delete(s.quarantine, k)
	return nil
}

// addJobLocked mints a job id and records its work key, remap permutation
// and trace choice in the job table; caller holds s.mu.
func (s *Server) addJobLocked(k key, perm []int, trace bool) string {
	s.jobSeq++
	id := fmt.Sprintf("j-%016x", s.jobSeq)
	s.jobs.add(id, jobEntry{key: k, perm: perm, trace: trace})
	return id
}

// worker executes flights off the admission queue until the queue is closed
// and drained.
func (s *Server) worker() {
	defer s.wg.Done()
	for f := range s.queue {
		s.mu.Lock()
		f.running = true
		s.mu.Unlock()
		s.met.queueWait.observe(time.Since(f.enqueuedAt))
		s.met.workersBusy.Add(1)
		start := time.Now()
		res, err := s.runFlight(f)
		elapsed := time.Since(start)
		f.cancel() // release the deadline timer
		s.met.workersBusy.Add(-1)
		s.met.solves.Add(1)
		if f.run != nil {
			s.met.sessionResolves.Add(1)
			s.met.sessionLatency.observe(elapsed)
		} else {
			s.met.solveLatency.observe(elapsed)
		}
		canceled := errors.Is(err, ccsched.ErrCanceled) ||
			errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		internal := errors.Is(err, ccsched.ErrInternal)
		injected := errors.Is(err, faultinject.ErrInjected)
		if err != nil {
			s.met.solveErrors.Add(1)
			if canceled {
				s.met.solveCanceled.Add(1)
			}
			if internal {
				s.met.panicsRecovered.Add(1)
			}
		}
		f.res, f.err, f.elapsed = res, err, elapsed
		s.mu.Lock()
		// A dead (canceled) flight may already have been replaced in the
		// map by a fresh one; only remove the entry if it is still ours.
		if s.flights[f.key] == f {
			delete(s.flights, f.key)
		}
		// Cancellation depends on timing, never on the instance: such
		// verdicts are not cached. Recovered panics are not either — they
		// feed the quarantine streak instead, so a key that stops panicking
		// (a fixed build, a transient corruption) solves normally again.
		// Injected faults are excluded too: caching one would keep the key
		// erroring after the fault clears, defeating chaos recovery checks.
		// Everything else (results, infeasibility, size-limit errors) is
		// deterministic and is cached.
		if !canceled && !internal && !injected {
			s.results.add(f.key, outcome{res: res, err: err, elapsed: elapsed})
		}
		if err == nil {
			// The full-tier result supersedes any degraded answer served
			// for this key while the solve ran.
			s.results.remove(degradedKey(f.key))
		}
		s.notePanicOutcomeLocked(f.key, internal)
		s.mu.Unlock()
		close(f.done)
		if s.traces != nil && res != nil && res.Trace != nil {
			s.traces.offer(traceEntry{
				SolveMs: float64(elapsed) / float64(time.Millisecond),
				Variant: f.opts.Variant.String(),
				N:       f.in.N(),
				Session: f.run != nil,
				Trace:   res.Trace,
			})
		}
		if err != nil {
			s.logger.Info("solve", "n", f.in.N(), "variant", f.opts.Variant.String(),
				"err", err.Error(), "elapsed_ms", elapsed.Milliseconds())
		} else {
			s.logger.Info("solve", "n", f.in.N(), "variant", f.opts.Variant.String(),
				"tier", res.Tier.String(), "makespan", res.Makespan.RatString(),
				"elapsed_ms", elapsed.Milliseconds())
		}
	}
}

// runFlight executes one flight's solve behind the service's last-resort
// panic boundary: a panic escaping the solver (or an injected server.worker
// fault) becomes an error wrapping ccsched.ErrInternal instead of killing
// the process. ccsched.Solve recovers its own panics already; this boundary
// covers injected Solver implementations and the session re-solve runners.
func (s *Server) runFlight(f *flight) (res *ccsched.Result, err error) {
	defer panicsafe.Recover(&err, "flight")
	if err := faultinject.Check("server.worker"); err != nil {
		return nil, err
	}
	if f.run != nil {
		return f.run(f.ctx)
	}
	return s.cfg.Solver(f.ctx, f.in, f.opts)
}

// notePanicOutcomeLocked updates k's quarantine streak with one solve
// outcome: a recovered panic extends the streak (tripping the TTL at the
// threshold), anything else clears it. Caller holds s.mu.
func (s *Server) notePanicOutcomeLocked(k key, internal bool) {
	if !internal {
		delete(s.quarantine, k)
		return
	}
	if s.cfg.PanicQuarantineThreshold < 0 {
		return
	}
	q := s.quarantine[k]
	if q == nil {
		q = &quarEntry{}
		s.quarantine[k] = q
	}
	q.panics++
	if q.panics >= s.cfg.PanicQuarantineThreshold && q.until.IsZero() {
		q.until = time.Now().Add(s.cfg.PanicQuarantineTTL)
		s.met.keysQuarantined.Add(1)
		s.logger.Warn("request key quarantined after repeated solver panics",
			"panics", q.panics, "ttl", s.cfg.PanicQuarantineTTL.String())
	}
}

// degradedOutcome answers one request key with its degraded-tier result: the
// full-tier answer if it landed meanwhile, the cached degraded answer, or a
// freshly solved millisecond 2-approx (certified LowerBound, degraded=true)
// cached under the key's degraded twin. The degraded entry never serves
// normal submissions — only this path reads it — and the full-tier publish
// of the same key removes it.
func (s *Server) degradedOutcome(k key, in *ccsched.Instance, opts ccsched.Options) outcome {
	dk := degradedKey(k)
	s.mu.Lock()
	if out, ok := s.results.get(k); ok {
		s.mu.Unlock()
		return out
	}
	if out, ok := s.results.get(dk); ok {
		s.mu.Unlock()
		s.met.degradedServed.Add(1)
		return out
	}
	s.mu.Unlock()
	opts.Tier = ccsched.TierApprox
	opts.FallbackTier = ccsched.TierAuto
	opts.Trace = false
	opts.Cache = nil
	start := time.Now()
	res, err := ccsched.Solve(s.baseCtx, in, opts)
	out := outcome{res: res, err: err, elapsed: time.Since(start)}
	if err == nil {
		res.Degraded = true
		s.mu.Lock()
		if _, full := s.results.get(k); !full {
			s.results.add(dk, out)
		}
		s.mu.Unlock()
	}
	s.met.degradedServed.Add(1)
	return out
}

// Shutdown gracefully stops the server: admission closes immediately (new
// submissions get ErrShuttingDown / 503), then the queue drains and
// in-flight solves finish. If ctx expires first, every remaining solve is
// canceled via context — ccsched.Solve aborts within one ILP iteration —
// and Shutdown still waits for the workers to exit before returning
// ctx.Err(). A nil error means the drain completed gracefully. Shutdown is
// idempotent; later calls wait for the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	first := !s.closed
	if first {
		s.closed = true
		close(s.queue)
		close(s.refineStop)
		if s.ckptStop != nil {
			close(s.ckptStop)
		}
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.logger.Warn("shutdown grace expired; canceling in-flight solves")
		s.baseCancel()
		<-done
	}
	s.baseCancel()
	// Final snapshot pass, after the workers exited and the background
	// checkpointer stopped (no overlapping writes). It runs even when the
	// grace expired — each file is fsynced and closed before Shutdown
	// returns — and its failures are logged and counted, never escalated:
	// a lost snapshot costs warm state on the next boot, not the drain.
	if first && s.cfg.StateDir != "" {
		<-s.ckptDone
		s.drainSnapshots()
	}
	s.logger.Info("shutdown complete")
	return err
}

// Metrics returns a point-in-time snapshot of the service counters.
func (s *Server) Metrics() MetricsSnapshot {
	s.mu.Lock()
	inFlight := len(s.flights)
	resultEntries := s.results.len()
	sessionsActive := len(s.sessions)
	s.mu.Unlock()
	hits, misses := s.cfg.Cache.Stats()
	return MetricsSnapshot{
		RequestsTotal:              s.met.requests.Load(),
		AdmittedTotal:              s.met.admitted.Load(),
		RejectedQueueFullTotal:     s.met.rejectedFull.Load(),
		CoalescedHitsTotal:         s.met.coalesced.Load(),
		ResultCacheHitsTotal:       s.met.resultCacheHits.Load(),
		SolvesTotal:                s.met.solves.Load(),
		SolveErrorsTotal:           s.met.solveErrors.Load(),
		SolveCanceledTotal:         s.met.solveCanceled.Load(),
		PanicsRecoveredTotal:       s.met.panicsRecovered.Load(),
		KeysQuarantinedTotal:       s.met.keysQuarantined.Load(),
		RejectedQuarantinedTotal:   s.met.rejectedQuarantined.Load(),
		DegradedServedTotal:        s.met.degradedServed.Load(),
		RefinementRungsTotal:       s.met.refineRungs.Load(),
		RefineBudgetExhaustedTotal: s.met.refineBudgetExhausted.Load(),
		RefineParked:               s.met.refineParked.Load(),
		WatchStreams:               s.met.watchStreams.Load(),
		AnytimeGap:                 s.met.anytimeGap.snapshot(),
		SessionsActive:             sessionsActive,
		SessionsCreatedTotal:       s.met.sessionsCreated.Load(),
		SessionResolvesTotal:       s.met.sessionResolves.Load(),
		QueueDepth:                 len(s.queue),
		QueueCapacity:              cap(s.queue),
		Workers:                    s.cfg.Workers,
		WorkersBusy:                s.met.workersBusy.Load(),
		InFlight:                   inFlight,
		ResultCacheEntries:         resultEntries,
		FeasibilityCache:           CacheStats{Hits: hits, Misses: misses, Entries: s.cfg.Cache.Len()},
		SolveLatency:               s.met.solveLatency.snapshot(),
		SessionSolveLatency:        s.met.sessionLatency.snapshot(),
		QueueWaitLatency:           s.met.queueWait.snapshot(),
		SnapshotWritesTotal:        s.met.snapshotWrites.Load(),
		SnapshotWriteErrors:        s.met.snapshotWriteErrors.Load(),
		SnapshotRetriesTotal:       s.met.snapshotRetries.Load(),
		SnapshotRestoresTotal:      s.met.snapshotRestores.Load(),
		SnapshotCorruptSkipped:     s.met.snapshotCorruptSkipped.Load(),
		PersistDegradedTotal:       s.met.persistDegradedEvents.Load(),
		CheckpointDegraded:         s.persistDegraded.Load(),
		RestoreLatency:             s.met.restoreLatency.snapshot(),
		UptimeSeconds:              time.Since(s.start).Seconds(),
	}
}
