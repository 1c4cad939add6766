package ptas

import (
	"bytes"
	"crypto/sha256"
	"math"
	"sort"

	"ccsched/internal/nfold"
)

// Snapshot codec for the feasibility cache. Durable sessions serialize the
// verdicts their private cache learned, in a form a later process can
// restore without ever trusting them: cache entries persist their key,
// verdict and evidence (the solution for feasible entries, the ray for
// infeasible ones) and come back marked restored, so the first hit
// re-verifies the evidence against a freshly built N-fold and drops the
// entry on any mismatch (see solveGuessCached). Infeasible verdicts without
// a ray are not exportable — there is nothing to re-verify — and are
// skipped.
//
// Floats (rays) are serialized as IEEE-754 bit patterns in uint64 fields,
// so the JSON round trip is exact and NaN/Inf can be rejected on decode.
// Export is deterministic (entries sorted by key), so encode(decode(x)) is
// a fixed point once invalid sections have been dropped — the property the
// snapshot fuzzer checks.

// floatBits encodes floats as IEEE-754 bit patterns.
func floatBits(fs []float64) []uint64 {
	if fs == nil {
		return nil
	}
	out := make([]uint64, len(fs))
	for i, f := range fs {
		out[i] = math.Float64bits(f)
	}
	return out
}

// bitsToFloats decodes IEEE-754 bit patterns, rejecting NaN and ±Inf (no
// certificate the solver produces contains them, so their presence means
// corruption).
func bitsToFloats(bits []uint64) ([]float64, bool) {
	if bits == nil {
		return nil, true
	}
	out := make([]float64, len(bits))
	for i, b := range bits {
		f := math.Float64frombits(b)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, false
		}
		out[i] = f
	}
	return out, true
}

// CacheEntrySnapshot is one serialized feasibility-cache verdict: the full
// cache key plus the verdict and its re-verifiable evidence.
type CacheEntrySnapshot struct {
	// Variant, Digest, G, MaxConfigs, MaxNodes and Engine reproduce the
	// cache key (Digest is the 32-byte derived-data digest).
	Variant    byte   `json:"variant"`
	Digest     []byte `json:"digest"`
	G          int64  `json:"g"`
	MaxConfigs int    `json:"max_configs"`
	MaxNodes   int    `json:"max_nodes"`
	Engine     string `json:"engine,omitempty"`
	// Feasible is the verdict; X is the integral N-fold solution backing a
	// feasible verdict, Ray (IEEE-754 bits) the Farkas certificate backing
	// an infeasible one.
	Feasible bool      `json:"feasible"`
	X        [][]int64 `json:"x,omitempty"`
	Ray      []uint64  `json:"ray,omitempty"`
	// Producer records the engine that originally produced the verdict
	// (diagnostic only; restored verdicts re-verify their evidence).
	Producer string `json:"producer,omitempty"`
}

// CacheSnapshot is the serializable form of a feasibility cache.
type CacheSnapshot struct {
	// Entries are the exportable verdicts, sorted by key for deterministic
	// output.
	Entries []CacheEntrySnapshot `json:"entries,omitempty"`
}

// Export returns the serializable form of the cache. Infeasible verdicts
// that carry no Farkas ray are skipped: without evidence there is nothing
// for a restore to re-verify, so they are not exportable. Returns nil for a
// nil or empty cache.
func (c *Cache) Export() *CacheSnapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.m) == 0 {
		return nil
	}
	out := &CacheSnapshot{Entries: make([]CacheEntrySnapshot, 0, len(c.m))}
	for k, e := range c.m {
		if !e.feasible && e.ray == nil {
			continue
		}
		out.Entries = append(out.Entries, CacheEntrySnapshot{
			Variant: k.variant, Digest: append([]byte(nil), k.digest[:]...), G: k.g,
			MaxConfigs: k.maxConfigs, MaxNodes: k.maxNodes, Engine: string(k.engine),
			Feasible: e.feasible, X: e.x, Ray: floatBits(e.ray),
			Producer: string(e.engine),
		})
	}
	if len(out.Entries) == 0 {
		return nil
	}
	sort.Slice(out.Entries, func(a, b int) bool {
		x, y := &out.Entries[a], &out.Entries[b]
		switch {
		case x.Variant != y.Variant:
			return x.Variant < y.Variant
		case x.G != y.G:
			return x.G < y.G
		case x.MaxConfigs != y.MaxConfigs:
			return x.MaxConfigs < y.MaxConfigs
		case x.MaxNodes != y.MaxNodes:
			return x.MaxNodes < y.MaxNodes
		case x.Engine != y.Engine:
			return x.Engine < y.Engine
		}
		return bytes.Compare(x.Digest, y.Digest) < 0
	})
	return out
}

// RestoreCache rebuilds a feasibility cache from a snapshot. Every restored
// entry is marked as such, which makes it a hint: its first lookup hit
// re-verifies the stored evidence against the freshly built N-fold and
// drops the entry on any mismatch, so a corrupt or stale snapshot degrades
// to a cold solve instead of a wrong verdict. Entries that are malformed at
// the shape level (bad variant tag, wrong digest length, non-positive g,
// missing or non-finite evidence) are dropped here. A nil snapshot returns
// an empty cache.
func RestoreCache(snap *CacheSnapshot) *Cache {
	c := NewCache()
	if snap == nil {
		return c
	}
	for _, r := range snap.Entries {
		if r.Variant > cachePreemptive || len(r.Digest) != sha256.Size || r.G < 1 ||
			r.MaxConfigs < 0 || r.MaxNodes < 0 {
			continue
		}
		e := cacheEntry{feasible: r.Feasible, engine: nfold.Engine(r.Producer), restored: true}
		if r.Feasible {
			if len(r.X) == 0 {
				continue
			}
			e.x = r.X
		} else {
			ray, ok := bitsToFloats(r.Ray)
			if !ok || len(ray) == 0 {
				continue
			}
			e.ray = ray
		}
		k := cacheKey{
			variant: r.Variant, g: r.G,
			maxConfigs: r.MaxConfigs, maxNodes: r.MaxNodes,
			engine: nfold.Engine(r.Engine),
		}
		copy(k.digest[:], r.Digest)
		c.store(k, e)
	}
	return c
}
