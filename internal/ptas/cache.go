package ptas

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"hash"
	"sync"

	"ccsched/internal/faultinject"
	"ccsched/internal/nfold"
	"ccsched/internal/trace"
)

// The feasibility cache. Every makespan-guess probe solves one
// configuration N-fold ILP — by far the dominant cost of a PTAS run — yet
// identical probes recur constantly: an ε-refinement sweep re-visits the
// coarser grids' guesses, repeated Solve calls on the same workload re-walk
// the same grid, and the huge-m and ordinary splittable paths share guesses
// after scaling. The cache memoizes the ILP verdict (and, when feasible,
// the integral N-fold solution) keyed by everything the verdict depends on:
// a digest of the scaled instance, the guess, δ, and the engine budget
// knobs. Schedule construction is re-run on hits — it is linear-ish and
// cheap next to an ILP solve, and keeps cached entries small and immutable.

// Cache memoizes makespan-guess feasibility verdicts across Solve calls. It
// is safe for concurrent use; a single Cache may back any number of
// concurrent solves (each probe takes the lock only to look up and to store,
// never while solving). Entries are bounded two ways — by count and by the
// approximate bytes of the stored N-fold solutions (a feasible n=1000-scale
// entry is ~1MB, so an entry cap alone would not bound memory): when either
// cap is exceeded, arbitrary entries are evicted until both hold, which is
// enough to keep long-running services from growing without bound while
// still serving the recurring-workload case. The zero value is NOT ready to
// use; call NewCache.
type Cache struct {
	mu    sync.Mutex
	m     map[cacheKey]cacheEntry
	max   int
	bytes int64 // approximate bytes of stored solutions
	maxB  int64
	// hits and misses are cumulative counters for diagnostics.
	hits, misses int64
}

// DefaultCacheEntries is the entry cap used by NewCache.
const DefaultCacheEntries = 4096

// DefaultCacheBytes is the approximate byte cap on stored N-fold solutions
// used by NewCache.
const DefaultCacheBytes = 64 << 20

// NewCache returns an empty feasibility cache holding at most
// DefaultCacheEntries verdicts totalling at most ~DefaultCacheBytes of
// stored solutions.
func NewCache() *Cache {
	return &Cache{m: make(map[cacheKey]cacheEntry), max: DefaultCacheEntries, maxB: DefaultCacheBytes}
}

// size estimates an entry's memory footprint: the dominant costs are the
// integral N-fold solution x and the Farkas ray.
func (e cacheEntry) size() int64 {
	var b int64 = 64 // struct + slice headers
	for _, brick := range e.x {
		b += 24 + 8*int64(len(brick))
	}
	b += 8 * int64(len(e.ray))
	return b
}

// cacheKey identifies one guess probe. variant distinguishes the four probe
// shapes (splittable, splittable-huge, preemptive, non-preemptive) because
// they build different N-folds from the same instance and guess. The engine
// budget knobs are part of the key: a verdict reached under a smaller node
// budget is not valid under a larger one.
//
// The digest covers the *derived* probe data — the rounded class loads,
// classifications and grouped sizes the guess N-fold is actually built from
// — rather than the raw instance. Everything the N-fold depends on beyond
// the digest is (g, slots, machine count), all inside the digest, so two
// probes with equal keys build bit-identical N-folds and the deterministic
// engines return bit-identical verdicts and solutions. The guess T itself is
// deliberately absent: the schemes work in δ²T/c units, making the N-fold a
// function of the rounded data only, so neighboring guesses (and re-solves
// of a mutated session instance whose roundings coincide) share entries.
type cacheKey struct {
	variant    byte
	digest     [sha256.Size]byte
	g          int64
	maxConfigs int
	maxNodes   int
	engine     nfold.Engine
}

// probe-shape tags for cacheKey.variant.
const (
	cacheSplit byte = iota
	cacheSplitHuge
	cacheNonPreemptive
	cachePreemptive
)

// cacheEntry is one memoized verdict. x is the N-fold solution when
// feasible; it is stored as handed out by the engine and must be treated as
// immutable by readers (schedule construction only reads it).
type cacheEntry struct {
	feasible bool
	x        [][]int64
	// params is the N-fold's parameter vector, derived for feasible
	// entries only: just an accepted guess's Report reads it, and deriving
	// it scans every brick's blocks.
	params nfold.Params
	engine nfold.Engine
	// ray is the Farkas certificate of an infeasible verdict when the
	// engine surfaced one (root-LP rejects do; deep branch-and-bound
	// rejects may not). It is what makes the verdict re-verifiable after a
	// restore from disk.
	ray []float64
	// restored marks an entry deserialized from a snapshot. Restored
	// entries are hints, never verdicts: the first lookup that hits one
	// re-verifies it against a freshly built N-fold (Check for feasible,
	// CertifiesInfeasible for infeasible) and either promotes it to a
	// trusted entry or drops it and solves cold. A restored entry can
	// therefore never flip a verdict, whatever the snapshot contained.
	restored bool
}

// lookup returns the memoized verdict for k, if any.
func (c *Cache) lookup(k cacheKey) (cacheEntry, bool) {
	if c == nil {
		return cacheEntry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[k]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// store memoizes a verdict, evicting arbitrary entries while either the
// entry cap or the byte cap is exceeded. An entry larger than the whole
// byte cap is not stored at all.
func (c *Cache) store(k cacheKey, e cacheEntry) {
	if c == nil {
		return
	}
	sz := e.size()
	if sz > c.maxB {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[k]; ok {
		c.bytes -= old.size()
		delete(c.m, k)
	}
	for len(c.m) >= c.max || c.bytes+sz > c.maxB {
		evicted := false
		for victim := range c.m {
			c.bytes -= c.m[victim].size()
			delete(c.m, victim)
			evicted = true
			break
		}
		if !evicted {
			break
		}
	}
	c.m[k] = e
	c.bytes += sz
}

// remove drops one entry (a restored entry that failed re-verification).
func (c *Cache) remove(k cacheKey) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.m[k]; ok {
		c.bytes -= old.size()
		delete(c.m, k)
	}
}

// Stats reports cumulative cache hits and misses.
func (c *Cache) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len reports the number of memoized verdicts.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// probeDigest incrementally hashes a probe's derived data.
type probeDigest struct {
	h   hash.Hash
	buf [8]byte
}

func newProbeDigest() *probeDigest { return &probeDigest{h: sha256.New()} }

func (d *probeDigest) put(v int64) {
	binary.LittleEndian.PutUint64(d.buf[:], uint64(v))
	d.h.Write(d.buf[:])
}

func (d *probeDigest) putBool(b bool) {
	if b {
		d.put(1)
	} else {
		d.put(0)
	}
}

func (d *probeDigest) sum() [sha256.Size]byte {
	var out [sha256.Size]byte
	d.h.Sum(out[:0])
	return out
}

// splitDigest hashes the derived data of one splittable (or splittable-huge)
// probe: machine count, slot budget, accuracy, and the rounded load and
// classification of every class in brick order. This is exactly what
// splitGuessCtx.buildNFold reads, so equal digests mean bit-identical
// N-folds.
func splitDigest(m int64, slots int, g int64, classes []int, pUnits []int64, small []bool) [sha256.Size]byte {
	d := newProbeDigest()
	d.put(m)
	d.put(int64(slots))
	d.put(g)
	d.put(int64(len(classes)))
	for _, u := range classes {
		d.put(pUnits[u])
		d.putBool(small[u])
	}
	return d.sum()
}

// groupedDigest hashes the derived data of a non-preemptive or preemptive
// probe: machine count, slot budget, accuracy, the distinct rounded job
// sizes, and per class (in brick order) either the rounded small load or the
// per-size job counts. Both schemes' buildNFold reads exactly this (their
// module/configuration enumerations are deterministic functions of it), so
// equal digests mean bit-identical N-folds.
func groupedDigest(m int64, slots int, g int64, sizes []int64, classes []int, small []bool, smallUnits []int64, nUP map[[2]int64]int64) [sha256.Size]byte {
	d := newProbeDigest()
	d.put(m)
	d.put(int64(slots))
	d.put(g)
	d.put(int64(len(sizes)))
	for _, s := range sizes {
		d.put(s)
	}
	d.put(int64(len(classes)))
	for _, u := range classes {
		if small[u] {
			d.put(1)
			d.put(smallUnits[u])
			continue
		}
		d.put(0)
		for _, s := range sizes {
			d.put(nUP[[2]int64{int64(u), s}])
		}
	}
	return d.sum()
}

// probeCacheKey assembles the cache key for one guess probe of a search.
func probeCacheKey(variant byte, digest [sha256.Size]byte, g int64, opts Options) cacheKey {
	no := opts.nfoldOptions(nil)
	return cacheKey{
		variant:    variant,
		digest:     digest,
		g:          g,
		maxConfigs: opts.maxConfigs(),
		maxNodes:   no.MaxNodes,
		engine:     no.Engine,
	}
}

// probeStats aggregates per-probe diagnostics across one guess search. The
// search runs only the probes it consumes, so the totals are deterministic.
type probeStats struct {
	cacheHits int
	nodes     int64
	pivots    int64
	warmHits  int64
}

// report fills the aggregate counter fields of a Report.
func (st *probeStats) report(rep *Report) {
	rep.CacheHits = st.cacheHits
	rep.BBNodes = st.nodes
	rep.BBPivots = st.pivots
	rep.WarmHits = st.warmHits
}

// fallbackReport is the Report of runScheme's approx-fallback exit.
func fallbackReport(g, hi int64, tried int, stats *probeStats) Report {
	rep := Report{InvDelta: g, Guess: hi, Guesses: tried, Engine: "approx-fallback"}
	stats.report(&rep)
	return rep
}

// solveGuessCached runs one guess probe's N-fold through the feasibility
// cache — the shared step of all four probe shapes. A hit returns the
// memoized verdict (counted in stats.cacheHits); a miss builds the N-fold,
// solves it under ctx with the search's shared nfold.Template (its engine
// spans hang off the probe span sp) and memoizes the verdict. The caller
// ends sp with the returned attributes once the whole probe is done.
// Errors — including cancellation — are never cached. Neither the warm restore nor the move cache in tmpl ever changes
// a verdict (restores are verdict-only and the augment move cache is
// content-deterministic), so cached entries stay valid across NoWarmStart
// settings and across the solves that share the cache.
func solveGuessCached(ctx context.Context, opts Options, key cacheKey, t int64, stats *probeStats, tmpl *nfold.Template, build func(context.Context) (*nfold.Problem, error), sp trace.Span) (cacheEntry, []trace.Attr, error) {
	// Chaos hook: one injection point per feasibility probe. A delay here
	// pushes a solve past its soft deadline; a panic must leave the solve as
	// a typed internal error; an error must surface as a clean typed failure.
	if err := faultinject.Check("ptas.probe"); err != nil {
		return cacheEntry{}, nil, err
	}
	var prob *nfold.Problem
	if entry, ok := opts.Cache.lookup(key); ok {
		if !entry.restored {
			stats.cacheHits++
			return entry, []trace.Attr{trace.A("t", t), trace.A("cache_hit", 1), trace.A("feasible", b2i(entry.feasible))}, nil
		}
		// A snapshot-restored entry is a hint, never a verdict: re-verify
		// it against the N-fold built from the live data before trusting
		// it. Feasible entries re-check their stored solution exactly
		// (nfold.Problem.Check); infeasible entries re-verify their Farkas
		// ray (nfold.Problem.CertifiesInfeasible). Either way a
		// restored entry cannot flip a verdict — a failed re-verification
		// drops the entry and the cold solve below runs as if it had never
		// existed.
		var err error
		if prob, err = build(ctx); err != nil {
			return cacheEntry{}, nil, err
		}
		if verified, ok := entry.reverify(prob); ok {
			opts.Cache.store(key, verified)
			stats.cacheHits++
			return verified, []trace.Attr{trace.A("t", t), trace.A("cache_hit", 1), trace.A("reverified", 1), trace.A("feasible", b2i(verified.feasible))}, nil
		}
		opts.Cache.remove(key)
	}
	if prob == nil {
		var err error
		if prob, err = build(ctx); err != nil {
			return cacheEntry{}, nil, err
		}
	}
	no := opts.nfoldOptions(tmpl)
	no.Trace = sp
	res, err := nfold.SolveCtx(ctx, prob, no)
	if err == nil {
		// A probe canceled as its engine finished drops the verdict
		// rather than derive params nobody will read.
		err = ctx.Err()
	}
	if err != nil {
		return cacheEntry{}, nil, err
	}
	stats.nodes += int64(res.Nodes)
	stats.pivots += int64(res.Pivots)
	stats.warmHits += int64(res.WarmHits)
	entry := cacheEntry{feasible: res.Status == nfold.Feasible, x: res.X, engine: res.Engine, ray: res.InfeasibleRay}
	if entry.feasible {
		entry.params = prob.Params()
	}
	opts.Cache.store(key, entry)
	return entry, []trace.Attr{
		trace.A("t", t), trace.A("feasible", b2i(entry.feasible)),
		trace.A("nodes", int64(res.Nodes)), trace.A("pivots", int64(res.Pivots)),
		trace.A("warm_hits", int64(res.WarmHits)),
	}, nil
}

// b2i renders a verdict as a span attribute value.
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// reverify checks a snapshot-restored entry against the freshly built
// N-fold and, on success, returns the trusted entry to memoize in its place
// (a feasible entry's params re-derived from the live problem, restored flag
// cleared).
// A false second return means the entry proves nothing about this problem
// and must be dropped.
func (e cacheEntry) reverify(prob *nfold.Problem) (cacheEntry, bool) {
	out := cacheEntry{feasible: e.feasible, x: e.x, ray: e.ray, engine: e.engine}
	if e.feasible {
		if prob.Check(e.x) != nil {
			return cacheEntry{}, false
		}
		out.params = prob.Params()
		return out, true
	}
	if e.ray == nil || !prob.CertifiesInfeasible(e.ray) {
		return cacheEntry{}, false
	}
	return out, true
}
