// Durable sessions on disk. When Config.StateDir is set, the server
// checkpoints every dirty session's snapshot (ccsched.Session.SnapshotState)
// to <state-dir>/<id>.ccsnap and restores all readable snapshots on boot, so
// a crash — including kill -9 — costs at most the work since the last
// checkpoint, never correctness: restores go through ccsched.RestoreSession,
// whose cache section is dropped-never-trusted, so a corrupt file degrades
// to a cold solve with an identical makespan.
//
// The disk format is magic ("CCSNAP01") + SHA-256 of the payload + the
// payload; writes go to a temp file that is fsynced, closed and renamed into
// place (then the directory is fsynced), so a file either holds a complete
// checksummed snapshot or does not exist. Unreadable, mismatched or
// stale-schema files are skipped on boot with a logged reason and a
// snapshot_corrupt_skipped_total tick — boot never fails because of a bad
// snapshot.
//
// Checkpointing is admission-budgeted: a tick is skipped entirely while the
// solve queue is more than half full, so persistence never competes with
// admitted work for the machine. The final drain snapshot in Shutdown runs
// after the workers exit and is not subject to the drain grace — it always
// fsyncs and closes its files — and its failures are logged and counted but
// never turn a graceful drain into an error exit.
package server

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"ccsched"
	"ccsched/internal/faultinject"
)

// snapMagic and snapExt identify session snapshot files on disk.
const (
	snapMagic = "CCSNAP01"
	snapExt   = ".ccsnap"
)

// encodeSnapshotFile frames a snapshot payload for disk: magic, payload
// checksum, payload.
func encodeSnapshotFile(payload []byte) []byte {
	out := make([]byte, 0, len(snapMagic)+sha256.Size+len(payload))
	out = append(out, snapMagic...)
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// decodeSnapshotFile unframes a snapshot file, verifying magic and checksum.
func decodeSnapshotFile(data []byte) ([]byte, error) {
	if len(data) < len(snapMagic)+sha256.Size {
		return nil, errors.New("truncated snapshot header")
	}
	if string(data[:len(snapMagic)]) != snapMagic {
		return nil, errors.New("not a session snapshot (bad magic)")
	}
	payload := data[len(snapMagic)+sha256.Size:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[len(snapMagic):len(snapMagic)+sha256.Size]) {
		return nil, errors.New("snapshot checksum mismatch")
	}
	return payload, nil
}

// writeSessionSnapshot atomically persists one framed snapshot: temp file,
// write, fsync, close, rename, directory fsync. A crash at any point leaves
// either the previous complete file or the new complete file, never a
// partial one.
func writeSessionSnapshot(dir, id string, payload []byte) error {
	tmp := filepath.Join(dir, id+snapExt+".tmp")
	final := filepath.Join(dir, id+snapExt)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	data := encodeSnapshotFile(payload)
	// The injection point truncates the write under a shortwrite fault,
	// leaving a convincing partial temp file — which the atomic rename
	// protocol must (and does) keep out of the final path.
	n, faultErr := faultinject.ShortWrite("server.snapshot.write", len(data))
	if _, err := f.Write(data[:n]); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if faultErr != nil {
		f.Close()
		os.Remove(tmp)
		return faultErr
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
	if d, err := os.Open(dir); err == nil {
		// Directory fsync is best-effort: the file itself is already durable,
		// this only hardens the rename's visibility after a crash.
		_ = d.Sync()
		_ = d.Close()
	}
	return nil
}

// validSessionID reports whether id is safe to use as a snapshot file stem
// and an imported session name: 1–64 characters of [A-Za-z0-9._-], and not a
// relative-path token.
func validSessionID(id string) bool {
	if len(id) == 0 || len(id) > 64 || id == "." || id == ".." {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '_' || c == '-':
		default:
			return false
		}
	}
	return true
}

// restoreSnapshots loads every readable session snapshot in StateDir into
// the session table. Called from New before the server admits work; failures
// are per-file (logged, counted, skipped), never fatal.
func (s *Server) restoreSnapshots() {
	entries, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		s.logger.Warn("state dir unreadable", "dir", s.cfg.StateDir, "err", err)
		return
	}
	for _, ent := range entries {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, snapExt) {
			continue
		}
		id := strings.TrimSuffix(name, snapExt)
		if !validSessionID(id) {
			s.logger.Warn("snapshot skipped", "file", name, "reason", "invalid session id")
			s.met.snapshotCorruptSkipped.Add(1)
			continue
		}
		start := time.Now()
		sess, err := s.restoreSnapshotFile(filepath.Join(s.cfg.StateDir, name))
		if err != nil {
			s.logger.Warn("snapshot skipped", "file", name, "err", err)
			s.met.snapshotCorruptSkipped.Add(1)
			continue
		}
		if len(s.sessions) >= s.cfg.MaxSessions {
			s.logger.Warn("snapshot skipped", "file", name, "reason", "session cap reached", "cap", s.cfg.MaxSessions)
			continue
		}
		sv := &svcSession{
			id:      id,
			sess:    sess,
			opts:    sanitizeOptions(sess.Options(), s.traces != nil),
			timeout: s.cfg.DefaultTimeout,
		}
		sv.ckptGen.Store(sess.Generation())
		s.armAnytime(sv, "")
		s.sessions[id] = sv
		if sv.any != nil {
			// Boot is single-threaded and the refine queue is buffered with
			// workers not yet running, so this cannot block; the ladder resumes
			// (or re-publishes the terminal rung) as soon as workers start.
			s.enqueueRefine(sv.any)
		}
		s.met.snapshotRestores.Add(1)
		s.met.restoreLatency.observe(time.Since(start))
		s.logger.Info("session restored from snapshot", "session", id, "jobs", len(sess.JobIDs()))
	}
}

// restoreSnapshotFile reads, unframes and restores one snapshot file.
func (s *Server) restoreSnapshotFile(path string) (*ccsched.Session, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	payload, err := decodeSnapshotFile(data)
	if err != nil {
		return nil, err
	}
	return ccsched.RestoreSession(payload)
}

// checkpointer periodically persists dirty sessions until ckptStop closes.
// A tick is skipped while the solve queue is more than half full, so
// checkpointing yields to admitted work.
func (s *Server) checkpointer() {
	defer close(s.ckptDone)
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case <-t.C:
		}
		if 2*len(s.queue) > cap(s.queue) {
			continue
		}
		s.checkpointSessions()
	}
}

// Checkpoint write retry policy: a failed snapshot write is retried in place
// with capped exponential backoff plus jitter (transient disk hiccups heal
// within the same checkpoint), and ckptDegradeStreak consecutive sessions
// failing all their retries flips the server to in-memory-only checkpointing
// until a disk probe succeeds.
const (
	ckptWriteRetries  = 3
	ckptBackoffBase   = 25 * time.Millisecond
	ckptBackoffCap    = 250 * time.Millisecond
	ckptDegradeStreak = 2
)

// checkpointSessions writes every dirty session's snapshot, one at a time.
// While checkpointing is degraded it instead probes the disk; sessions stay
// dirty (in memory, still serving) until the probe succeeds, at which point
// durability resumes in the same pass — no restart needed.
func (s *Server) checkpointSessions() {
	if s.persistDegraded.Load() {
		if err := s.probeDisk(); err != nil {
			s.logger.Warn("disk probe failed; checkpointing stays in-memory-only", "err", err)
			return
		}
		s.persistDegraded.Store(false)
		s.ckptFailStreak.Store(0)
		s.logger.Info("disk probe succeeded; checkpoint durability resumed")
	}
	s.mu.Lock()
	svs := make([]*svcSession, 0, len(s.sessions))
	for _, sv := range s.sessions {
		svs = append(svs, sv)
	}
	s.mu.Unlock()
	for _, sv := range svs {
		s.checkpointSession(sv)
	}
}

// checkpointSession persists one session iff it mutated — by delta
// (generation) or by solve (resolve count; solves grow the cache without
// touching the generation) — since its last checkpoint. Both counters are
// read before the snapshot is taken, so anything landing in between
// leaves the session dirty and the next tick rewrites it — a checkpoint can
// be fresher than its recorded counters but never staler.
// A failed write retries with backoff; exhausting the retries leaves the
// session dirty for the next tick and feeds the degradation streak.
func (s *Server) checkpointSession(sv *svcSession) {
	gen, res := sv.sess.Generation(), sv.sess.Resolves()
	if gen == sv.ckptGen.Load() && res == sv.ckptRes.Load() {
		return
	}
	payload, err := sv.sess.SnapshotState()
	if err != nil {
		// An encode failure is a session problem, not a disk problem: count
		// and log it, but keep it out of the disk-degradation streak.
		s.met.snapshotWriteErrors.Add(1)
		s.logger.Warn("session snapshot failed", "session", sv.id, "err", err)
		return
	}
	backoff := ckptBackoffBase
	for attempt := 0; ; attempt++ {
		err = writeSessionSnapshot(s.cfg.StateDir, sv.id, payload)
		if err == nil {
			break
		}
		s.met.snapshotWriteErrors.Add(1)
		if attempt >= ckptWriteRetries {
			s.logger.Warn("session snapshot write failed; retries exhausted",
				"session", sv.id, "attempts", attempt+1, "err", err)
			s.noteCkptFailure()
			return
		}
		s.met.snapshotRetries.Add(1)
		// Full jitter over [backoff/2, backoff]: concurrent retries (several
		// ccserved on one disk) decorrelate instead of hammering in lockstep.
		time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff)/2+1)))
		if backoff *= 2; backoff > ckptBackoffCap {
			backoff = ckptBackoffCap
		}
	}
	// A DELETE may have dropped the session while this write ran: take the
	// file back out so it cannot resurrect on the next boot (dropSession
	// removes under s.mu too, so one of the two removals comes last).
	s.mu.Lock()
	if _, live := s.sessions[sv.id]; !live {
		s.removeSnapshot(sv.id)
	}
	s.mu.Unlock()
	sv.ckptGen.Store(gen)
	sv.ckptRes.Store(res)
	s.met.snapshotWrites.Add(1)
	s.noteCkptSuccess()
}

// noteCkptFailure records one session checkpoint that exhausted its write
// retries; at ckptDegradeStreak consecutive failures checkpointing degrades
// to in-memory-only (metered, logged, surfaced on /readyz) and the
// checkpointer switches to probing for disk recovery.
func (s *Server) noteCkptFailure() {
	if s.ckptFailStreak.Add(1) < ckptDegradeStreak {
		return
	}
	if s.persistDegraded.CompareAndSwap(false, true) {
		s.met.persistDegradedEvents.Add(1)
		s.logger.Warn("checkpointing degraded to in-memory-only after persistent snapshot write failures",
			"streak", s.ckptFailStreak.Load())
	}
}

// noteCkptSuccess resets the disk-failure streak after a successful
// checkpoint write.
func (s *Server) noteCkptSuccess() {
	s.ckptFailStreak.Store(0)
}

// probeDisk verifies the state directory accepts durable writes again: a
// small file is written through the same injection point as real snapshots,
// fsynced and removed. Its name does not carry the snapshot extension, so a
// probe leftover is ignored by boot restores.
func (s *Server) probeDisk() error {
	path := filepath.Join(s.cfg.StateDir, ".ccserved-probe")
	const probe = "ccserved disk probe"
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	n, faultErr := faultinject.ShortWrite("server.snapshot.write", len(probe))
	if _, err := f.Write([]byte(probe)[:n]); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if faultErr != nil {
		f.Close()
		os.Remove(path)
		return faultErr
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	os.Remove(path)
	return nil
}

// drainSnapshots is the final checkpoint pass of a graceful (or grace-
// expired) shutdown: it runs after the workers exited, fsyncs and closes
// every file it writes regardless of the drain grace, and never contributes
// to Shutdown's error — a failed snapshot write costs warm state on the next
// boot, not the drain.
func (s *Server) drainSnapshots() {
	s.checkpointSessions()
	s.logger.Info("drain snapshots written", "dir", s.cfg.StateDir)
}

// removeSnapshot deletes a dropped session's snapshot file so it does not
// resurrect on the next boot.
func (s *Server) removeSnapshot(id string) {
	if s.cfg.StateDir == "" {
		return
	}
	os.Remove(filepath.Join(s.cfg.StateDir, id+snapExt))
	os.Remove(filepath.Join(s.cfg.StateDir, id+genExt))
}

// handleSessionExport serves GET /v1/sessions/{id}/export: the session's
// versioned snapshot document, taken under the session lock so it never
// interleaves with a delta batch. The bytes round-trip through PUT
// .../export on any ccserved speaking the same snapshot schema version —
// the live-migration primitive.
func (s *Server) handleSessionExport(w http.ResponseWriter, r *http.Request) {
	sv, ok := s.lookupSession(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown session %q", r.PathValue("id"))
		return
	}
	s.met.requests.Add(1)
	sv.mu.Lock()
	data, err := sv.sess.SnapshotState()
	sv.mu.Unlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "snapshot: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(data); err != nil {
		s.logger.Warn("session export write failed", "session", sv.id, "err", err)
	}
}

// handleSessionImport serves PUT /v1/sessions/{id}/export: restores an
// exported snapshot under the given id. The restore validates the envelope
// strictly (400 on damage) and degrades the cache section per the
// dropped-never-trusted rule; the imported session answers with status
// "imported" and is checkpointed like any other from then on.
func (s *Server) handleSessionImport(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !validSessionID(id) {
		writeError(w, http.StatusBadRequest, "invalid session id %q (want 1-64 of [A-Za-z0-9._-])", id)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading snapshot: %v", err)
		return
	}
	s.met.requests.Add(1)
	start := time.Now()
	sess, err := ccsched.RestoreSession(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, "restoring snapshot: %v", err)
		return
	}
	if n := len(sess.JobIDs()); n > s.cfg.MaxJobs {
		writeError(w, http.StatusUnprocessableEntity, "%v: %d jobs > %d", ErrInstanceTooLarge, n, s.cfg.MaxJobs)
		return
	}
	sv := &svcSession{
		id:      id,
		sess:    sess,
		opts:    sanitizeOptions(sess.Options(), s.traces != nil),
		timeout: s.cfg.DefaultTimeout,
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "%v", ErrShuttingDown)
		return
	}
	if _, exists := s.sessions[id]; exists {
		s.mu.Unlock()
		writeError(w, http.StatusConflict, "session %q already exists", id)
		return
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, "%v: %d live", ErrTooManySessions, len(s.sessions))
		return
	}
	s.armAnytime(sv, r.Header.Get("X-Tenant-Id"))
	s.sessions[id] = sv
	s.met.sessionsCreated.Add(1)
	s.mu.Unlock()
	if sv.any != nil {
		s.enqueueRefine(sv.any)
	}
	s.met.snapshotRestores.Add(1)
	s.met.restoreLatency.observe(time.Since(start))
	in := sess.Instance()
	writeJSON(w, http.StatusCreated, SessionResponse{
		SessionID: id,
		Status:    StatusImported,
		JobIDs:    sess.JobIDs(),
		Machines:  in.M,
	})
}
