package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sync"
	"time"

	"ccsched"
	"ccsched/internal/server"
)

// serveRates are the fixed arrival rates of serve-mix, one phase each, in
// requests per second: about 0.2, 0.5 and 0.85 of the 135-145 req/s this
// mix sustained at most on the 2-CPU host of the recorded baseline (NOTES.md
// gives the measurement). The first serveGatedPhases lie below the knee
// where median latency starts to jump between runs; the last probes near
// saturation for slo_rate_per_s, the highest rate whose tail percentile
// stays within serveTailLimitMs without a growing backlog.
var serveRates = []float64{30, 70, 120}

const (
	serveTailLimitMs = 1000
	serveGatedPhases = 2
	// serveConns exceeds the server's 4 workers, so near saturation the
	// admission queue holds requests.
	serveConns = 8
	// serveBacklogMax is how many requests may still be outstanding when a
	// phase ends without the phase counting as a growing backlog: one per
	// connection plus one queued behind each.
	serveBacklogMax = 2 * serveConns
	// serveRequestTimeout bounds one request, so stragglers cannot hold the
	// run past its time limit; a timed-out request counts as failed.
	serveRequestTimeout = 45 * time.Second
	// serveHardTimeoutMs is the PTAS requests' timeout_ms.
	serveHardTimeoutMs = 1000
	// serveGrace is the drain budget when a server stops.
	serveGrace = 2 * time.Second
)

// Request kinds of the serve-mix traffic.
const (
	kindApprox   = "approx"
	kindPTAS     = "ptas"
	kindResubmit = "resubmit"
	kindTwin     = "twin"
	kindSession  = "session"
)

// request is one precomputed serve-mix arrival.
type request struct {
	kind    string
	body    []byte            // POST /v1/solve body (one-shot kinds)
	in      *ccsched.Instance // instance as submitted, for the output check
	variant ccsched.Variant
	life    *lifecycle // session kind: the session this step advances
	// withPrev dispatches the request at the due time of the one before
	// it, so it reaches the server while that one is still in flight.
	withPrev bool
}

// lifecycle is one anytime session's life: create, three PATCHes of
// resize churn, DELETE. Steps of one session run in order; a step whose
// due time comes before its predecessor finished waits, and that wait
// counts in its latency.
type lifecycle struct {
	mu    sync.Mutex
	base  *ccsched.Instance
	rng   *rand.Rand
	step  int
	id    string
	ids   []int64
	p     []int64
	alive bool
}

const lifecycleSteps = 5

// Instance sizes of the serve-mix requests: approx solves, and PTAS solves
// and anytime sessions. Sessions are n=200, not session-churn's 1000:
// NOTES.md says why.
var (
	approxGen = ccsched.GeneratorConfig{N: 2000, Classes: 200, Machines: 100, Slots: 3, PMax: 10000}
	smallGen  = ccsched.GeneratorConfig{N: 200, Classes: 20, Machines: 10, Slots: 3, PMax: 10000}
)

// mixPattern fixes the kinds of every ten consecutive arrivals: 60% approx
// solves, 10% PTAS solves, 10% twins (the PTAS request just before, jobs
// shuffled, sent at the same due time, so it meets the original in flight
// and is coalesced), 10% resubmissions of an earlier one-shot request with
// its jobs shuffled (answered by the result LRU), 10% anytime-session
// steps. A fixed pattern gives every run and every rate phase the same mix;
// NOTES.md says why approx has the largest share.
var mixPattern = []string{
	kindApprox, kindApprox, kindPTAS, kindTwin, kindApprox,
	kindResubmit, kindApprox, kindSession, kindApprox, kindApprox,
}

// approxFamilies are the families of the approx requests, which cycle
// through every (variant, family) pair in turn.
var approxFamilies = []string{"uniform", "zipf"}

// buildRequests draws the arrival sequence of all phases from rng.
func buildRequests(rng *rand.Rand, count int) ([]*request, error) {
	var out, oneShots []*request
	var life *lifecycle
	lifeSteps := 0 // steps planned for life so far
	approxN, ptasN := 0, 0
	for i := 0; i < count; i++ {
		var r *request
		var err error
		switch mixPattern[i%len(mixPattern)] {
		case kindApprox:
			v, fam := variants[approxN%len(variants)], approxFamilies[approxN/len(variants)%len(approxFamilies)]
			approxN++
			r, err = newOneShot(rng, kindApprox, fam, approxGen, ccsched.Options{Variant: v, Tier: ccsched.TierApprox}, 0)
			oneShots = append(oneShots, r)
		case kindPTAS:
			v := variants[ptasN%len(variants)]
			ptasN++
			r, err = newOneShot(rng, kindPTAS, "uniform", smallGen, ccsched.Options{Variant: v, Tier: ccsched.TierPTAS, Epsilon: 1}, 500)
			oneShots = append(oneShots, r)
		case kindResubmit:
			r, err = resubmission(rng, resubmitTarget(rng, oneShots))
		case kindTwin:
			if r, err = resubmission(rng, out[len(out)-1]); err == nil {
				r.kind, r.withPrev = kindTwin, true
			}
		case kindSession:
			if life == nil || lifeSteps == lifecycleSteps {
				g := smallGen
				g.Seed = rng.Int63()
				in, gerr := ccsched.Generate("uniform", g)
				if gerr != nil {
					return nil, gerr
				}
				life, lifeSteps = &lifecycle{base: in, rng: rand.New(rand.NewSource(rng.Int63()))}, 0
			}
			lifeSteps++
			r = &request{kind: kindSession, life: life, variant: ccsched.Splittable}
		}
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// newOneShot builds a /v1/solve request on a fresh instance of the family.
// A positive soft timeout (ms) is the PTAS requests' degraded-answer
// deadline.
func newOneShot(rng *rand.Rand, kind, family string, g ccsched.GeneratorConfig, opts ccsched.Options, soft int64) (*request, error) {
	g.Seed = rng.Int63()
	in, err := ccsched.Generate(family, g)
	if err != nil {
		return nil, err
	}
	req := server.SolveRequest{Instance: in, Options: opts, SoftTimeoutMs: soft}
	if soft > 0 {
		// A PTAS solve still running after the soft answer may finish and
		// publish up to 1 s, then it is canceled instead of holding a worker
		// and a CPU: each slow instance a seed draws costs at most that.
		req.TimeoutMs = serveHardTimeoutMs
	}
	body, err := json.Marshal(req)
	return &request{kind: kind, body: body, in: in, variant: opts.Variant}, err
}

// resubmitLag is how many one-shot requests back a resubmission reaches:
// over 2 s of arrivals even at 120 req/s, so its original has finished or
// hit its 1 s timeout_ms, and the resubmission meets the result LRU (or,
// after a canceled solve, starts a fresh one), not the original's flight;
// twins exercise coalescing. NOTES.md, cliff 8, says what goes wrong when
// a resubmission joins a flight late.
const resubmitLag = 200

// resubmitTarget picks the request a resubmission re-sends: a random
// one-shot at least resubmitLag back, or, before there is one, a random
// earlier approx one-shot, which carries no deadline.
func resubmitTarget(rng *rand.Rand, oneShots []*request) *request {
	if n := len(oneShots) - resubmitLag; n > 0 {
		return oneShots[rng.Intn(n)]
	}
	var approx []*request
	for _, r := range oneShots {
		if r.kind == kindApprox {
			approx = append(approx, r)
		}
	}
	return approx[rng.Intn(len(approx))]
}

// resubmission re-sends an earlier request with its job list shuffled; the
// server canonicalizes it to the same key, so it is answered by
// coalescing or the result LRU.
func resubmission(rng *rand.Rand, orig *request) (*request, error) {
	var sr server.SolveRequest
	if err := json.Unmarshal(orig.body, &sr); err != nil {
		return nil, err
	}
	in := sr.Instance
	rng.Shuffle(len(in.P), func(a, b int) {
		in.P[a], in.P[b] = in.P[b], in.P[a]
		in.Class[a], in.Class[b] = in.Class[b], in.Class[a]
	})
	body, err := json.Marshal(sr)
	return &request{kind: kindResubmit, body: body, in: in, variant: orig.variant}, err
}

// serveEnv is a running server on a loopback listener plus its client.
type serveEnv struct {
	svc      *server.Server
	http     *http.Server
	url      string
	client   *http.Client
	served   chan error
	solveMu  sync.Mutex
	solveMs  []float64 // solver calls timed through Config.Solver (traced run)
	approxMs []float64 // ...of which TierApprox solves
}

// startServer builds the server with the Config ccserved builds from its
// default flags (logs go to a discarding handler at the same level). With
// timed set, Config.Solver wraps ccsched.Solve to time solver calls.
func startServer(timed bool) (*serveEnv, error) {
	env := &serveEnv{}
	cfg := server.Config{
		QueueDepth:         256,
		ResultCacheEntries: 1024,
		DefaultTimeout:     120 * time.Second,
		MaxTimeout:         15 * time.Minute,
		MaxJobs:            100000,
		MaxSessions:        1024,
		MaxBodyBytes:       32 << 20,
		Cache:              ccsched.NewFeasibilityCache(),
		Logger:             slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelInfo})),
	}
	if timed {
		cfg.Solver = func(ctx context.Context, in *ccsched.Instance, opts ccsched.Options) (*ccsched.Result, error) {
			t := time.Now()
			res, err := ccsched.Solve(ctx, in, opts)
			d := msSince(t)
			env.solveMu.Lock()
			env.solveMs = append(env.solveMs, d)
			if opts.Tier == ccsched.TierApprox {
				env.approxMs = append(env.approxMs, d)
			}
			env.solveMu.Unlock()
			return res, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	env.svc = server.New(cfg)
	env.http = &http.Server{Handler: env.svc.Handler(), ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
	env.url = "http://" + ln.Addr().String()
	env.served = make(chan error, 1)
	go func() { env.served <- env.http.Serve(ln) }()
	env.client = &http.Client{Timeout: serveRequestTimeout, Transport: &http.Transport{
		MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true,
	}}
	return env, nil
}

// stop drains the server and closes the listener and client connections;
// it returns once the serving goroutine has exited. Solves still running
// after serveGrace are canceled and handlers still running after another
// serveGrace are cut off, as ccserved's forced drain does; stop reports
// whether that happened. Background refinement may hold a worker for
// minutes, so neither is an error here.
func (e *serveEnv) stop() (bool, error) {
	ctx, cancel := context.WithTimeout(context.Background(), serveGrace)
	defer cancel()
	err := e.svc.Shutdown(ctx)
	forced := errors.Is(err, context.DeadlineExceeded)
	if forced {
		err = nil
	} else if err != nil {
		err = fmt.Errorf("server drain: %w", err)
	}
	hctx, hcancel := context.WithTimeout(context.Background(), serveGrace)
	defer hcancel()
	if e.http.Shutdown(hctx) != nil {
		forced = true
		if cerr := e.http.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("http close: %w", cerr)
		}
	}
	if serr := <-e.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	e.client.CloseIdleConnections()
	return forced, err
}

// result is one completed request as the load generator saw it.
type result struct {
	req        *request
	status     int
	body       []byte
	err        error
	dueMs      float64 // due time, from the start of the run
	latMs      float64 // due time to last byte
	serviceMs  float64 // send to last byte
	connWaitMs float64 // send to connection acquired
	lagMs      float64 // how late the generator dispatched the request
	phase      int
	step       int               // session kind: lifecycle step taken
	sessionIn  *ccsched.Instance // session steps: the instance the answer must fit
}

// do sends one request and reads the whole response.
func (e *serveEnv) do(method, path string, body []byte) (int, []byte, float64, error) {
	var rdr io.Reader
	if body != nil {
		rdr = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, e.url+path, rdr)
	if err != nil {
		return 0, nil, 0, err
	}
	t := time.Now()
	var connWait float64
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		GotConn: func(httptrace.GotConnInfo) { connWait = msSince(t) },
	}))
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, connWait, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, connWait, err
}

// send performs one arrival and fills the parts of res it owns.
func (e *serveEnv) send(r *request, res *result) {
	if r.life == nil {
		res.status, res.body, res.connWaitMs, res.err = e.do(http.MethodPost, "/v1/solve", r.body)
		return
	}
	l := r.life
	l.mu.Lock()
	defer l.mu.Unlock()
	step := l.step
	l.step++
	res.step = step
	switch {
	case step == 0:
		body, err := json.Marshal(server.SessionCreateRequest{
			Instance: l.base, Options: ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierAnytime, Epsilon: 1},
		})
		if err != nil {
			res.err = err
			return
		}
		res.status, res.body, res.connWaitMs, res.err = e.do(http.MethodPost, "/v1/sessions", body)
		var sr server.SessionResponse
		if res.err == nil && res.status == http.StatusOK && json.Unmarshal(res.body, &sr) == nil {
			l.id, l.ids, l.p, l.alive = sr.SessionID, sr.JobIDs, append([]int64(nil), l.base.P...), true
		}
		res.sessionIn = l.instance()
	case !l.alive:
		res.err = errors.New("session step after a failed create")
	case step == lifecycleSteps-1:
		res.status, res.body, res.connWaitMs, res.err = e.do(http.MethodDelete, "/v1/sessions/"+l.id, nil)
		l.alive = false
	default:
		var d server.SessionDelta
		for k := 0; k < len(l.p)/20; k++ {
			pos := l.rng.Intn(len(l.p))
			cur := l.p[pos]
			l.p[pos] = max(cur+l.rng.Int63n(2*cur/50+1)-cur/50, 1)
			d.Resize = append(d.Resize, server.SessionResize{ID: l.ids[pos], P: l.p[pos]})
		}
		body, err := json.Marshal(d)
		if err != nil {
			res.err = err
			return
		}
		res.status, res.body, res.connWaitMs, res.err = e.do(http.MethodPatch, "/v1/sessions/"+l.id, body)
		res.sessionIn = l.instance()
	}
}

// instance is the session's current instance as the client knows it.
func (l *lifecycle) instance() *ccsched.Instance {
	in := l.base.Clone()
	copy(in.P, l.p)
	return in
}

// openLoop dispatches reqs at the phases' fixed rates, each request at
// its due time however many are outstanding (an open loop), and calls send
// for it on its own goroutine. A request marked withPrev shares the due
// time of the one before it. Latency runs from the due time, so a stall
// also counts against every request due while it lasts; lag is how late
// the generator itself dispatched. It returns every result and, per phase,
// how many requests were still outstanding when the phase ended.
func openLoop(reqs []*request, perPhase []int, rates []float64, send func(*request, *result)) ([]*result, []int) {
	results := make([]*result, len(reqs))
	backlog := make([]int, len(rates))
	var wg sync.WaitGroup
	var mu sync.Mutex
	open := 0
	begin := time.Now()
	phaseStart, due := time.Duration(0), time.Duration(0)
	i := 0
	for p, rate := range rates {
		for k := 0; k < perPhase[p]; k++ {
			if !reqs[i].withPrev || i == 0 {
				due = phaseStart + time.Duration(float64(k)/rate*float64(time.Second))
			}
			if d := time.Until(begin.Add(due)); d > 0 {
				time.Sleep(d)
			}
			res := &result{req: reqs[i], phase: p, dueMs: durMs(due)}
			res.lagMs = msSince(begin) - res.dueMs
			results[i] = res
			i++
			mu.Lock()
			open++
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				sent := time.Now()
				send(res.req, res)
				end := time.Now()
				res.serviceMs = durMs(end.Sub(sent))
				res.latMs = durMs(end.Sub(begin)) - res.dueMs
				mu.Lock()
				open--
				mu.Unlock()
			}()
		}
		phaseStart += time.Duration(float64(perPhase[p]) / rate * float64(time.Second))
		if d := time.Until(begin.Add(phaseStart)); d > 0 {
			time.Sleep(d)
		}
		mu.Lock()
		backlog[p] = open
		mu.Unlock()
	}
	wg.Wait()
	return results, backlog
}

// runServeMix runs the open-loop serve-mix workload against an in-process
// server. Outputs are checked after the run, outside the timed region.
func runServeMix(cfg config) (*recorder, error) {
	rec := newRecorder()
	rec.openLoop = true
	perPhase := make([]int, len(serveRates))
	total := 0
	for p, rate := range serveRates {
		perPhase[p] = int(math.Round(rate * cfg.seconds / float64(len(serveRates))))
		total += perPhase[p]
	}
	var env *serveEnv
	var reqs []*request
	for i := 0; i < setupReps; i++ {
		runtime.GC() // the garbage of earlier repetitions is not this one's cost
		t := time.Now()
		rng := rand.New(rand.NewSource(cfg.seed))
		var err error
		if reqs, err = buildRequests(rng, total); err != nil {
			return nil, err
		}
		if env, err = startServer(cfg.trace); err != nil {
			return nil, err
		}
		if err := env.warmUp(); err != nil {
			_, serr := env.stop()
			return nil, errors.Join(err, serr)
		}
		rec.setups = append(rec.setups, time.Since(t).Seconds())
		if i < setupReps-1 {
			if _, err := env.stop(); err != nil {
				return nil, err
			}
		}
	}
	env.solveMu.Lock()
	env.solveMs, env.approxMs = nil, nil
	env.solveMu.Unlock()
	before := env.svc.Metrics()
	rec.start()
	begin := time.Now()
	results, backlog := openLoop(reqs, perPhase, serveRates, env.send)
	rec.stop(time.Since(begin))
	after := env.svc.Metrics()
	forced, err := env.stop()
	if err != nil {
		return nil, err
	}
	if forced {
		rec.notes = append(rec.notes, fmt.Sprintf("drain forced: solves or handlers still running %v after the run", serveGrace))
	}
	var lt layerTotals
	env.collect(rec, results, backlog, before, after, &lt, cfg.trace)
	lt.fill(rec, nil)
	return rec, nil
}

// warmUp sends one approx and one PTAS solve before timing starts. Their
// instances are fixed, not drawn from the run's seed: a PTAS solve's time
// varies a hundredfold between instances, and set-up time should not.
func (e *serveEnv) warmUp() error {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []struct {
		g    ccsched.GeneratorConfig
		opts ccsched.Options
		soft int64
	}{
		{approxGen, ccsched.Options{Tier: ccsched.TierApprox}, 0},
		{smallGen, ccsched.Options{Tier: ccsched.TierPTAS, Epsilon: 1}, 500},
	} {
		r, err := newOneShot(rng, w.opts.Tier.String(), "uniform", w.g, w.opts, w.soft)
		if err != nil {
			return err
		}
		status, _, _, err := e.do(http.MethodPost, "/v1/solve", r.body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("warm-up %s: status %d: %v", r.kind, status, err)
		}
	}
	return nil
}

// collect checks every response and computes the serve-mix metrics.
func (e *serveEnv) collect(rec *recorder, results []*result, backlog []int, before, after server.MetricsSnapshot, lt *layerTotals, traced bool) {
	type phaseLat struct{ lat []float64 }
	phases := make([]phaseLat, len(serveRates))
	var lag, connWait, solveReq, approxReq, create, patch []float64
	byKind := map[string][]float64{}
	for _, res := range results {
		lag = append(lag, res.lagMs)
		connWait = append(connWait, res.connWaitMs)
		// latency_p50_ms is over the approx solves, the majority kind, of
		// the phases below the knee. The median of the whole mix falls where
		// the kinds' latencies meet and jumps with how many slow PTAS solves
		// a seed draws; past the knee, queueing decides it.
		o := op{latMs: res.latMs, notP50: res.req.kind != kindApprox || res.phase >= serveGatedPhases}
		if err := e.checkResponse(res, &o, lt, traced); err != nil {
			rec.fail(o, err)
			phases[res.phase].lat = append(phases[res.phase].lat, math.Inf(1))
			continue
		}
		rec.ops = append(rec.ops, o)
		phases[res.phase].lat = append(phases[res.phase].lat, res.latMs)
		byKind[res.req.kind] = append(byKind[res.req.kind], res.latMs)
		switch {
		case res.req.life == nil:
			solveReq = append(solveReq, res.serviceMs)
			if res.req.kind == kindApprox {
				approxReq = append(approxReq, res.serviceMs)
			}
		case res.step == 0:
			create = append(create, res.serviceMs)
		case res.step < lifecycleSteps-1:
			patch = append(patch, res.serviceMs)
		}
	}
	for p, rate := range serveRates {
		tv, tp := tail(phases[p].lat)
		ok := tv <= serveTailLimitMs && backlog[p] <= serveBacklogMax
		rec.notes = append(rec.notes, fmt.Sprintf("rate %g/s: %d requests, tail p%.1f %.1f ms, p50 %.1f ms, backlog at end %d, meets limit %v",
			rate, len(phases[p].lat), tp, tv, median(phases[p].lat), backlog[p], ok))
		if ok {
			rec.sloRate = rate
		}
	}
	for _, kind := range sortedKeys(byKind) {
		v := byKind[kind]
		rec.notes = append(rec.notes, fmt.Sprintf("kind %-8s %4d answered, p50 %8.2f ms, max %8.2f ms", kind, len(v), median(v), maxOf(v)))
	}
	L := rec.layer
	L["loadgen.lag_p99_ms"] = quantile(lag, 0.99)
	L["loadgen.conn_wait_ms"] = median(connWait)
	L["server.solve_request_ms"] = median(solveReq)
	L["server.session_create_ms"] = median(create)
	L["server.session_patch_ms"] = median(patch)
	L["server.solver_ms"] = median(e.solveMs)
	// Approx requests are fresh instances that run exactly one solve each,
	// so their time outside the solver is the server's own: JSON, canonical
	// form, admission and queueing.
	if traced {
		L["server.self_ms"] = median(approxReq) - median(e.approxMs)
	}
	bounds, cum := histDelta(before.QueueWaitLatency, after.QueueWaitLatency)
	L["server.queue_wait_p50_ms"] = histQuantile(bounds, cum, 0.5)
	L["server.queue_wait_p99_ms"] = histQuantile(bounds, cum, 0.99)
	reqs := float64(after.RequestsTotal - before.RequestsTotal)
	if reqs > 0 {
		L["server.lru_hit_ratio"] = float64(after.ResultCacheHitsTotal-before.ResultCacheHitsTotal) / reqs
		L["server.coalesce_ratio"] = float64(after.CoalescedHitsTotal-before.CoalescedHitsTotal) / reqs
	}
	L["server.degraded_served"] = float64(after.DegradedServedTotal - before.DegradedServedTotal)
	L["server.rejected_429"] = float64(after.RejectedQueueFullTotal - before.RejectedQueueFullTotal)
	L["server.solve_canceled"] = float64(after.SolveCanceledTotal - before.SolveCanceledTotal)
	L["server.refine_rungs"] = float64(after.RefinementRungsTotal - before.RefinementRungsTotal)
}

// checkResponse checks one response; the schedule is decoded in the
// submitter's job order and validated against the instance as submitted.
func (e *serveEnv) checkResponse(res *result, o *op, lt *layerTotals, traced bool) error {
	if res.err != nil {
		return res.err
	}
	if res.status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %.200s", res.req.kind, res.status, res.body)
	}
	var answer *ccsched.Result
	var in *ccsched.Instance
	switch {
	case res.req.life == nil:
		var sr server.SolveResponse
		if err := json.Unmarshal(res.body, &sr); err != nil {
			return err
		}
		if sr.Status != server.StatusDone {
			return fmt.Errorf("solve status %q: %s", sr.Status, sr.Error)
		}
		answer, in = sr.Result, res.req.in
	case res.sessionIn == nil: // DELETE: no schedule to check
		return nil
	default:
		var sr server.SessionResponse
		if err := json.Unmarshal(res.body, &sr); err != nil {
			return err
		}
		if sr.Status != server.StatusDone {
			return fmt.Errorf("session status %q: %s", sr.Status, sr.Error)
		}
		answer, in = sr.Result, res.sessionIn
		o.firstMs = res.latMs
	}
	q, took, err := checkResult(in, res.req.variant, answer)
	lt.validateMs = append(lt.validateMs, float64(took)/float64(time.Millisecond))
	if err != nil {
		return err
	}
	o.quality = q
	o.degraded = answer.Degraded
	if traced && res.req.life == nil {
		lt.extraCalls(in, res.req.variant)
	}
	return nil
}

// histDelta turns two snapshots of one cumulative histogram into the
// (upper bound, cumulative count) pairs of the observations between them.
func histDelta(before, after server.LatencySnapshot) ([]float64, []int64) {
	bounds := make([]float64, len(after.Buckets))
	cum := make([]int64, len(after.Buckets))
	for i, b := range after.Buckets {
		bounds[i] = b.LeMs
		if i == len(after.Buckets)-1 {
			bounds[i] = math.Inf(1)
		}
		cum[i] = b.Count
		if i < len(before.Buckets) {
			cum[i] -= before.Buckets[i].Count
		}
	}
	return bounds, cum
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}
