// The slowest-traces debug ring. While Config.TraceRing is enabled, every
// solve runs traced and the worker offers its finished trace here; the ring
// keeps only the N slowest solves seen so far, so GET /v1/debug/traces
// always answers "where did the service's worst wall clock go" without
// storing a trace per request. Memory is bounded by N × the span cap.
package server

import (
	"net/http"
	"sort"
	"sync"

	"ccsched"
)

// traceEntry is one retained solve trace plus the labels needed to read it
// without the original request.
type traceEntry struct {
	// SolveMs is the solver wall clock that ranked this entry.
	SolveMs float64 `json:"solve_ms"`
	// Variant and N identify the workload shape.
	Variant string `json:"variant"`
	N       int    `json:"n"`
	// Session marks session re-solves (their probe spans show which
	// guesses the session's kept cache answered).
	Session bool `json:"session,omitempty"`
	// Trace is the span timeline.
	Trace *ccsched.SolveTrace `json:"trace"`
}

// traceRing retains the cap slowest entries ever offered.
type traceRing struct {
	mu      sync.Mutex
	cap     int
	entries []traceEntry // sorted by SolveMs descending
}

func newTraceRing(cap int) *traceRing {
	return &traceRing{cap: cap}
}

// offer inserts e if it is among the cap slowest, evicting the fastest
// retained entry when full.
func (r *traceRing) offer(e traceEntry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.entries) == r.cap {
		if e.SolveMs <= r.entries[len(r.entries)-1].SolveMs {
			return
		}
		r.entries = r.entries[:len(r.entries)-1]
	}
	i := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].SolveMs < e.SolveMs })
	r.entries = append(r.entries, traceEntry{})
	copy(r.entries[i+1:], r.entries[i:])
	r.entries[i] = e
}

// snapshot copies the retained entries, slowest first.
func (r *traceRing) snapshot() []traceEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]traceEntry, len(r.entries))
	copy(out, r.entries)
	return out
}

// TracesResponse is the body of GET /v1/debug/traces.
type TracesResponse struct {
	// Capacity is the ring size; zero means the ring is disabled.
	Capacity int `json:"capacity"`
	// Traces are the retained entries, slowest first.
	Traces []traceEntry `json:"traces"`
}

// handleTraces serves the slowest-traces ring.
func (s *Server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	if s.traces == nil {
		writeJSON(w, http.StatusOK, TracesResponse{Traces: []traceEntry{}})
		return
	}
	writeJSON(w, http.StatusOK, TracesResponse{Capacity: s.traces.cap, Traces: s.traces.snapshot()})
}
