package server

import (
	"ccsched"
	"ccsched/internal/faultinject"
)

// Wire types of the HTTP/JSON API. perfbench and the tests share them; the
// formats themselves are plain JSON over the public ccsched codecs, so any
// HTTP client can speak them (see examples/service for a from-scratch
// client).

// SolveRequest is the body of POST /v1/solve.
type SolveRequest struct {
	// Instance is the CCS instance in the public JSON wire format.
	Instance *ccsched.Instance `json:"instance"`
	// Options selects variant, tier and knobs exactly like ccsched.Options;
	// the zero value solves the splittable variant with TierAuto.
	Options ccsched.Options `json:"options"`
	// TimeoutMs, when positive, is the solve deadline in milliseconds;
	// exceeding it yields HTTP 408. Zero selects the server default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
	// SoftTimeoutMs, when positive, is the degraded-fallback deadline in
	// milliseconds: if the requested tier is still solving when it fires, the
	// response is the millisecond 2-approx (certified lower bound,
	// result.degraded=true) while the full solve keeps running and publishes
	// for later requests. Zero inherits the server's -soft-timeout default;
	// negative disables degradation for this request.
	SoftTimeoutMs int64 `json:"soft_timeout_ms,omitempty"`
}

// Job states reported in SolveResponse.Status.
const (
	// StatusQueued means the solve is admitted but not yet picked up.
	StatusQueued = "queued"
	// StatusRunning means a worker is currently solving.
	StatusRunning = "running"
	// StatusDone means Result is populated.
	StatusDone = "done"
	// StatusError means the solve finished with Error set.
	StatusError = "error"
	// StatusImported means the session was restored from an exported
	// snapshot (PUT /v1/sessions/{id}/export); solve it with GET.
	StatusImported = "imported"
)

// SolveResponse is the body of POST /v1/solve and GET /v1/jobs/{id}.
type SolveResponse struct {
	// ID identifies the submission for later polling at /v1/jobs/{id}.
	ID string `json:"id"`
	// Status is one of the Status* constants.
	Status string `json:"status"`
	// Result is the solve result, in the submitter's job order, when Status
	// is "done".
	Result *ccsched.Result `json:"result,omitempty"`
	// Error is the solve error message when Status is "error".
	Error string `json:"error,omitempty"`
	// SolveMs is the solver wall clock in milliseconds (done/error only).
	SolveMs float64 `json:"solve_ms,omitempty"`
	// Coalesced reports the submission attached to an identical in-flight
	// solve instead of starting its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Cached reports the submission was answered from the result cache.
	Cached bool `json:"cached,omitempty"`
	// RequestID echoes the request's X-Request-Id on async (202) responses,
	// linking the job object to the server's structured request logs.
	RequestID string `json:"request_id,omitempty"`
}

// SessionCreateRequest is the body of POST /v1/sessions.
type SessionCreateRequest struct {
	// Instance is the session's initial CCS instance.
	Instance *ccsched.Instance `json:"instance"`
	// Options selects variant, tier and knobs for every re-solve of this
	// session; fixed at creation.
	Options ccsched.Options `json:"options"`
	// TimeoutMs, when positive, is the default per-re-solve deadline in
	// milliseconds. Zero selects the server default.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// SessionJob is one arriving job in a SessionDelta.
type SessionJob struct {
	// P is the processing time.
	P int64 `json:"p"`
	// Class is the 0-based class.
	Class int `json:"class"`
}

// SessionResize changes one job's processing time.
type SessionResize struct {
	// ID is the stable job id (from SessionResponse.JobIDs).
	ID int64 `json:"id"`
	// P is the new processing time.
	P int64 `json:"p"`
}

// SessionDelta is the body of PATCH /v1/sessions/{id}: a batch of instance
// mutations applied atomically per sub-batch (add, then resize, then
// remove, then machine/slot changes) before one incremental re-solve.
type SessionDelta struct {
	// Add appends jobs; their minted ids come back in
	// SessionResponse.JobIDs.
	Add []SessionJob `json:"add,omitempty"`
	// Resize changes processing times of existing jobs.
	Resize []SessionResize `json:"resize,omitempty"`
	// Remove deletes jobs by stable id (all-or-nothing).
	Remove []int64 `json:"remove,omitempty"`
	// SetMachines changes the machine count (0 = unchanged).
	SetMachines int64 `json:"set_machines,omitempty"`
	// SetSlots changes the per-machine class-slot budget (0 = unchanged).
	SetSlots int `json:"set_slots,omitempty"`
	// TimeoutMs, when positive, overrides this re-solve's deadline.
	TimeoutMs int64 `json:"timeout_ms,omitempty"`
}

// SessionResponse is the body of every /v1/sessions endpoint.
type SessionResponse struct {
	// SessionID identifies the session for PATCH/GET/DELETE.
	SessionID string `json:"session_id"`
	// Status is one of the Status* constants, or "deleted".
	Status string `json:"status"`
	// JobIDs are the stable ids of the current jobs, parallel to the job
	// indices used by Result's schedules.
	JobIDs []int64 `json:"job_ids,omitempty"`
	// Machines echoes the current machine count.
	Machines int64 `json:"machines,omitempty"`
	// Resolves counts the session's executed re-solves so far.
	Resolves int64 `json:"resolves,omitempty"`
	// Result is the current schedule when Status is "done".
	Result *ccsched.Result `json:"result,omitempty"`
	// Error is the solve or delta error when Status is "error".
	Error string `json:"error,omitempty"`
	// SolveMs is the re-solve wall clock in milliseconds (zero when the
	// response came from the result cache).
	SolveMs float64 `json:"solve_ms,omitempty"`
	// Coalesced reports the re-solve attached to an identical in-flight
	// solve instead of running its own.
	Coalesced bool `json:"coalesced,omitempty"`
	// Cached reports the re-solve was answered from the result cache.
	Cached bool `json:"cached,omitempty"`
	// RequestID echoes the request's X-Request-Id on async (202) responses.
	RequestID string `json:"request_id,omitempty"`
}

// WatchEvent is one Server-Sent Event on GET /v1/sessions/{id}/watch: an
// anytime session's published improvement, carried in full (events are
// self-contained state snapshots, so a subscriber that missed intermediate
// events holds the current best after any single event). The SSE id line
// carries Generation; reconnecting with Last-Event-ID replays everything
// published after it.
type WatchEvent struct {
	// SessionID identifies the watched session.
	SessionID string `json:"session_id"`
	// Generation is the event's publication number, strictly increasing per
	// session and never reused across server restarts (the floor is
	// persisted before an event becomes visible).
	Generation uint64 `json:"generation"`
	// Rung and Rungs locate the improvement on the ε-ladder: rung 0 is the
	// constant-factor first answer, Rungs-1 the terminal PTAS rung.
	Rung  int `json:"rung"`
	Rungs int `json:"rungs"`
	// Epsilon is the rung's PTAS accuracy (0 on rung 0).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Gap is the certified optimality gap Makespan/LowerBound − 1.
	Gap float64 `json:"gap"`
	// Makespan and LowerBound are the exact rationals as "p/q" strings.
	Makespan   string `json:"makespan"`
	LowerBound string `json:"lower_bound"`
	// Final marks the terminal rung: the stream ends after this event, and
	// no further refinement follows until the next delta.
	Final bool `json:"final"`
	// Result is the full improvement in the session's job order.
	Result *ccsched.Result `json:"result,omitempty"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	// Error describes what was rejected and why.
	Error string `json:"error"`
}

// ReadyResponse is the body of GET /readyz.
type ReadyResponse struct {
	// Ready reports whether the server should receive traffic right now.
	Ready bool `json:"ready"`
	// Reasons lists why the server is not ready (draining, queue over 90%
	// full, checkpointing degraded); empty when Ready.
	Reasons []string `json:"reasons,omitempty"`
	// QueueDepth and QueueCapacity describe the admission queue.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
}

// FaultsRequest is the body of PUT /v1/debug/faults (Config.FaultAdmin).
type FaultsRequest struct {
	// Specs is a comma-separated fault list in the CCSCHED_FAULTS syntax:
	// point=mode[:arg][*hits] (see package faultinject).
	Specs string `json:"specs"`
}

// FaultsResponse is the body of every /v1/debug/faults response.
type FaultsResponse struct {
	// Armed lists every armed injection point with its spec and fire count.
	Armed []faultinject.PointStatus `json:"armed"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	// Status is "ok" while the server admits work, "draining" after
	// Shutdown began.
	Status string `json:"status"`
	// Workers is the solver pool size.
	Workers int `json:"workers"`
	// QueueDepth and QueueCapacity describe the admission queue.
	QueueDepth    int `json:"queue_depth"`
	QueueCapacity int `json:"queue_capacity"`
}
