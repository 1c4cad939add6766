package ccsched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"ccsched/internal/ptas"
)

// Durable sessions. SnapshotState serializes everything a Session is —
// its instance, stable job ids, options — plus everything it has learned
// (the guess-feasibility cache) into one versioned, self-describing JSON
// document; RestoreSession rebuilds a Session from it in a later process.
//
// The envelope (version, options, instance, job ids) is validated strictly:
// any defect there fails the restore, because a session with a wrong
// instance or dangling ids is not degraded, it is wrong. The cache section
// follows the opposite rule — *dropped, never trusted*: each entry is
// validated independently and a stale or corrupt one is discarded,
// degrading that probe to a cold solve. What survives never decides a
// verdict unchecked (restored cache verdicts re-verify their evidence
// against a freshly built N-fold before the first hit counts), so a
// restored session can never return a makespan different from a cold solve
// of the same instance — only reach it faster. Snapshots written when
// sessions also carried guess templates and search seeds have a "state"
// member; decoding ignores it.

// SnapshotVersion is the schema version written by Session.SnapshotState
// and required by RestoreSession. Bump it on any incompatible change to the
// snapshot document; old processes then refuse new snapshots (and vice
// versa) instead of guessing.
const SnapshotVersion = 1

// sessionSnapshot is the JSON document produced by Session.SnapshotState.
type sessionSnapshot struct {
	Version  int       `json:"version"`
	Options  Options   `json:"options"`
	Instance *Instance `json:"instance"`
	JobIDs   []int64   `json:"job_ids"`
	NextID   int64     `json:"next_id"`
	// Digest is the hex SHA-256 of the instance content. The cache below
	// was learned on exactly this instance; a mismatch (a spliced or
	// hand-edited document) drops it while the envelope still restores.
	Digest string              `json:"instance_digest"`
	Cache  *ptas.CacheSnapshot `json:"cache,omitempty"`
}

// instanceDigest hashes the instance content for the snapshot cross-check.
func instanceDigest(in *Instance) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(in.M)
	put(int64(in.Slots))
	put(int64(in.N()))
	for _, p := range in.P {
		put(p)
	}
	for _, c := range in.Class {
		put(int64(c))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// SnapshotState serializes the session — instance, job ids, options, and
// its feasibility cache — into a versioned
// JSON document for RestoreSession. The snapshot is consistent: it is taken
// under the session lock, so it never interleaves with a delta or a solve.
// Taking a snapshot does not disturb the session.
func (s *Session) SnapshotState() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := sessionSnapshot{
		Version:  SnapshotVersion,
		Options:  s.opts,
		Instance: s.in,
		JobIDs:   s.ids,
		NextID:   s.nextID,
		Digest:   instanceDigest(s.in),
		Cache:    s.opts.Cache.Export(),
	}
	return json.Marshal(snap)
}

// RestoreSession rebuilds a session from a SnapshotState document. The
// envelope — schema version, options, instance, job ids — must be valid in
// full or the restore fails. The cache section is restored on the
// dropped-never-trusted rule: entries that fail validation (or the whole
// section, when the instance digest no longer matches) are discarded, and
// everything that does restore is re-verified before it can influence a
// verdict, so the restored session's first Solve returns a makespan
// bit-identical to a cold solve of the same instance. The restored session
// owns a private feasibility cache seeded from the snapshot (unless the
// options say NoCache); its first Solve call re-solves over that cache.
func RestoreSession(data []byte) (*Session, error) {
	var snap sessionSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("ccsched: decoding snapshot: %w", err)
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("ccsched: snapshot schema version %d, this build speaks %d", snap.Version, SnapshotVersion)
	}
	if snap.Instance == nil {
		return nil, fmt.Errorf("ccsched: snapshot has no instance")
	}
	in := snap.Instance
	if err := in.Validate(); err != nil {
		return nil, fmt.Errorf("ccsched: snapshot instance: %w", err)
	}
	switch snap.Options.Variant {
	case Splittable, Preemptive, NonPreemptive:
	default:
		return nil, fmt.Errorf("ccsched: snapshot has unknown variant %v", snap.Options.Variant)
	}
	if len(snap.JobIDs) != in.N() {
		return nil, fmt.Errorf("ccsched: snapshot has %d job ids for %d jobs", len(snap.JobIDs), in.N())
	}
	seen := make(map[int64]bool, len(snap.JobIDs))
	for _, id := range snap.JobIDs {
		if id < 1 || id > snap.NextID {
			return nil, fmt.Errorf("ccsched: snapshot job id %d outside [1,%d]", id, snap.NextID)
		}
		if seen[id] {
			return nil, fmt.Errorf("ccsched: snapshot job id %d duplicated", id)
		}
		seen[id] = true
	}
	// The envelope is good; everything beyond this point degrades instead
	// of failing. A cache learned on a different instance (digest
	// mismatch) is dropped wholesale.
	cache := snap.Cache
	if snap.Digest != instanceDigest(in) {
		cache = nil
	}
	opts := snap.Options
	opts.Cache = nil
	if !opts.NoCache {
		opts.Cache = ptas.RestoreCache(cache)
	}
	return &Session{
		in:     in.Clone(),
		ids:    append([]int64(nil), snap.JobIDs...),
		nextID: snap.NextID,
		opts:   opts,
		gen:    1,
	}, nil
}
