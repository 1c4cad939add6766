package server_test

// Crash-recovery tests for the server persistence layer: snapshot files
// survive kill -9 semantics (drain snapshots, checkpoints), damaged files
// are skipped with a metered reason, restored sessions solve to cold
// parity, and the export/import endpoints migrate sessions between
// servers. The checkpoint-during-PATCH race test runs under -race in CI.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ccsched"
	"ccsched/internal/server"
)

// persistTestInstance is a small instance with warm-state-worthy structure.
func persistTestInstance(t *testing.T, seed int64) *ccsched.Instance {
	t.Helper()
	in, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
		N: 40, Classes: 6, Machines: 5, Slots: 2, PMax: 200, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

var persistTestOpts = ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, Epsilon: 1}

// coldMakespan solves in cold (fresh cache) and returns the result.
func coldMakespan(t *testing.T, in *ccsched.Instance) *ccsched.Result {
	t.Helper()
	opts := persistTestOpts
	opts.Cache = ccsched.NewFeasibilityCache()
	res, err := ccsched.Solve(context.Background(), in, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// createPersistedSession creates one session over HTTP and returns its id
// and the mirrored instance.
func createPersistedSession(t *testing.T, url string, seed int64) (string, *ccsched.Instance) {
	t.Helper()
	in := persistTestInstance(t, seed)
	code, sr := sessionCall(t, "POST", url+"/v1/sessions", server.SessionCreateRequest{
		Instance: in, Options: persistTestOpts, TimeoutMs: 60000,
	})
	if code != http.StatusOK || sr.Status != server.StatusDone {
		t.Fatalf("create: %d %+v", code, sr)
	}
	return sr.SessionID, in
}

// TestSnapshotRestoreAcrossRestart checks the core durability loop: a
// drained server leaves snapshots behind, a fresh server over the same
// state dir restores them, and the restored session re-solves to the cold
// makespan of the mirrored instance with snapshot_restores_total counted.
func TestSnapshotRestoreAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := server.New(server.Config{Workers: 2, StateDir: dir, Logger: testLogger(t)})
	ts1 := httptest1(t, s1)
	id, mirror := createPersistedSession(t, ts1.URL, 11)

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()
	if _, err := os.Stat(filepath.Join(dir, id+".ccsnap")); err != nil {
		t.Fatalf("drain left no snapshot: %v", err)
	}

	s2, ts2 := startServer(t, server.Config{Workers: 2, StateDir: dir, Logger: testLogger(t)})
	code, gr := sessionCall(t, "GET", ts2.URL+"/v1/sessions/"+id, nil)
	if code != http.StatusOK || gr.Status != server.StatusDone {
		t.Fatalf("restored GET: %d %+v", code, gr)
	}
	want := coldMakespan(t, mirror)
	if gr.Result == nil || gr.Result.Makespan.Cmp(want.Makespan) != 0 {
		t.Fatalf("restored makespan %v != cold %s", gr.Result, want.Makespan.RatString())
	}
	// The restored session answers its probes warm from the restored cache.
	if gr.Result.Report.CacheHits == 0 {
		t.Fatalf("restored re-solve ran fully cold: %+v", gr.Result.Report)
	}
	m := s2.Metrics()
	if m.SnapshotRestoresTotal < 1 {
		t.Fatalf("snapshot_restores_total = %d, want >= 1", m.SnapshotRestoresTotal)
	}
	if m.RestoreLatency.Count < 1 {
		t.Fatalf("restore_latency.count = %d, want >= 1", m.RestoreLatency.Count)
	}
	// The restored session keeps working: a PATCH re-solves with parity.
	code, pr := sessionCall(t, "PATCH", ts2.URL+"/v1/sessions/"+id, server.SessionDelta{
		Resize: []server.SessionResize{{ID: gr.JobIDs[0], P: 123}},
	})
	if code != http.StatusOK || pr.Status != server.StatusDone {
		t.Fatalf("restored PATCH: %d %+v", code, pr)
	}
	mirror.P[0] = 123
	want = coldMakespan(t, mirror)
	if pr.Result.Makespan.Cmp(want.Makespan) != 0 {
		t.Fatalf("patched restored makespan != cold")
	}
}

// httptest1 wraps a pre-built server in an httptest server without the
// startServer cleanup (these tests drain and restart servers mid-test).
func httptest1(t *testing.T, s *server.Server) *httptest.Server {
	t.Helper()
	return httptest.NewServer(s.Handler())
}

// reframe wraps a snapshot payload in the on-disk frame (magic + SHA-256 +
// payload), mirroring the unexported writer so damage tests can produce
// checksum-valid files with modified payloads.
func reframe(payload []byte) []byte {
	out := []byte("CCSNAP01")
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	return append(out, payload...)
}

// TestSnapshotDamageSkippedOnBoot truncates, bit-flips and version-bumps
// snapshot files and checks each boot skips the damaged file (metered, not
// fatal) while cleanly restoring the undamaged ones; the session behind a
// damaged snapshot is simply gone (404), never wrong.
func TestSnapshotDamageSkippedOnBoot(t *testing.T) {
	dir := t.TempDir()
	s1 := server.New(server.Config{Workers: 2, StateDir: dir, Logger: testLogger(t)})
	ts1 := httptest1(t, s1)
	idA, mirrorA := createPersistedSession(t, ts1.URL, 21)
	idB, _ := createPersistedSession(t, ts1.URL, 22)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts1.Close()

	pathB := filepath.Join(dir, idB+".ccsnap")
	raw, err := os.ReadFile(pathB)
	if err != nil {
		t.Fatal(err)
	}
	for _, damage := range []struct {
		name string
		data []byte
	}{
		{"truncated", raw[:len(raw)/2]},
		{"bit-flipped", flipBit(raw, len(raw)/2)},
		{"version-bumped", versionBump(t, raw)},
		{"empty", nil},
	} {
		t.Run(damage.name, func(t *testing.T) {
			if err := os.WriteFile(pathB, damage.data, 0o644); err != nil {
				t.Fatal(err)
			}
			s2, ts2 := startServer(t, server.Config{Workers: 2, StateDir: dir, Logger: testLogger(t)})
			if m := s2.Metrics(); m.SnapshotCorruptSkipped < 1 {
				t.Fatalf("snapshot_corrupt_skipped_total = %d, want >= 1", m.SnapshotCorruptSkipped)
			}
			if code, _ := sessionCall(t, "GET", ts2.URL+"/v1/sessions/"+idB, nil); code != http.StatusNotFound {
				t.Fatalf("damaged session: GET = %d, want 404", code)
			}
			code, gr := sessionCall(t, "GET", ts2.URL+"/v1/sessions/"+idA, nil)
			if code != http.StatusOK || gr.Status != server.StatusDone {
				t.Fatalf("undamaged session: %d %+v", code, gr)
			}
			want := coldMakespan(t, mirrorA)
			if gr.Result.Makespan.Cmp(want.Makespan) != 0 {
				t.Fatalf("undamaged restored makespan != cold")
			}
		})
	}
}

// flipBit returns data with one bit flipped at pos.
func flipBit(data []byte, pos int) []byte {
	out := append([]byte(nil), data...)
	out[pos] ^= 0x40
	return out
}

// versionBump rewrites a framed snapshot with version 999 and a valid
// checksum, so the skip exercises the schema check rather than the frame.
func versionBump(t *testing.T, framed []byte) []byte {
	t.Helper()
	payload := framed[8+32:]
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatal(err)
	}
	doc["version"] = json.RawMessage("999")
	bumped, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return reframe(bumped)
}

// TestSessionExportImport migrates a session between two servers via the
// export endpoints and checks the import solves warm to cold parity.
func TestSessionExportImport(t *testing.T) {
	_, tsA := startServer(t, server.Config{Workers: 2, Logger: testLogger(t)})
	id, mirror := createPersistedSession(t, tsA.URL, 31)

	resp, err := http.Get(tsA.URL + "/v1/sessions/" + id + "/export")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("export: %d %v", resp.StatusCode, err)
	}

	sB, tsB := startServer(t, server.Config{Workers: 2, Logger: testLogger(t)})
	req, err := http.NewRequest("PUT", tsB.URL+"/v1/sessions/migrated-1/export", bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ir server.SessionResponse
	if err := json.NewDecoder(presp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusCreated || ir.Status != server.StatusImported {
		t.Fatalf("import: %d %+v", presp.StatusCode, ir)
	}
	if len(ir.JobIDs) != mirror.N() {
		t.Fatalf("import: %d job ids, want %d", len(ir.JobIDs), mirror.N())
	}

	code, gr := sessionCall(t, "GET", tsB.URL+"/v1/sessions/migrated-1", nil)
	if code != http.StatusOK || gr.Status != server.StatusDone {
		t.Fatalf("imported GET: %d %+v", code, gr)
	}
	want := coldMakespan(t, mirror)
	if gr.Result.Makespan.Cmp(want.Makespan) != 0 {
		t.Fatalf("imported makespan != cold")
	}
	if gr.Result.Report.CacheHits == 0 {
		t.Fatalf("imported session re-solved fully cold: %+v", gr.Result.Report)
	}
	if m := sB.Metrics(); m.SnapshotRestoresTotal < 1 {
		t.Fatalf("snapshot_restores_total = %d after import, want >= 1", m.SnapshotRestoresTotal)
	}

	// Re-import under the same id conflicts; garbage is a 400; a
	// path-traversal id is refused before anything touches a path.
	if code, _ := putRaw(t, tsB.URL+"/v1/sessions/migrated-1/export", snap); code != http.StatusConflict {
		t.Fatalf("duplicate import = %d, want 409", code)
	}
	if code, _ := putRaw(t, tsB.URL+"/v1/sessions/migrated-2/export", []byte("junk")); code != http.StatusBadRequest {
		t.Fatalf("junk import = %d, want 400", code)
	}
	if code, _ := putRaw(t, tsB.URL+"/v1/sessions/"+`%2e%2e%2fetc`+"/export", snap); code != http.StatusBadRequest {
		t.Fatalf("traversal import = %d, want 400", code)
	}
}

// putRaw PUTs raw bytes and returns the status code and body.
func putRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest("PUT", url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// TestCheckpointDuringPatch races a fast background checkpointer against a
// stream of PATCHes (run it under -race to check the synchronization), then
// restarts from whatever checkpoint won and checks the restored session
// solves its snapshotted instance to cold parity — a checkpoint taken at
// any instant must be a valid, restorable state.
func TestCheckpointDuringPatch(t *testing.T) {
	dir := t.TempDir()
	s1 := server.New(server.Config{
		Workers: 2, StateDir: dir, CheckpointInterval: time.Millisecond, Logger: testLogger(t),
	})
	ts1 := httptest1(t, s1)
	id, _ := createPersistedSession(t, ts1.URL, 41)

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				code, pr := sessionCall(t, "PATCH", ts1.URL+"/v1/sessions/"+id, server.SessionDelta{
					Resize: []server.SessionResize{{ID: int64(1 + (7*i+g)%40), P: int64(1 + 13*i + g)}},
				})
				if code != http.StatusOK || pr.Status != server.StatusDone {
					t.Errorf("racing PATCH: %d %+v", code, pr)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Let at least one checkpoint observe the final state, then kill the
	// server the hard way for this layer: no drain pass (grace already
	// expired contexts are beside the point — we simply stop using s1 and
	// boot a second server off the directory, exactly what follows kill -9).
	time.Sleep(50 * time.Millisecond)

	s2 := server.New(server.Config{Workers: 2, StateDir: dir, Logger: testLogger(t)})
	ts2 := httptest1(t, s2)
	code, gr := sessionCall(t, "GET", ts2.URL+"/v1/sessions/"+id, nil)
	if code != http.StatusOK || gr.Status != server.StatusDone {
		t.Fatalf("restored GET: %d %+v", code, gr)
	}
	// The checkpoint may predate the last PATCHes; correctness is that the
	// restored state solves ITS OWN instance to cold parity. Rebuild the
	// instance the restored session holds from its export and cold-solve it.
	resp, err := http.Get(ts2.URL + "/v1/sessions/" + id + "/export")
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	restored, err := ccsched.RestoreSession(snap)
	if err != nil {
		t.Fatalf("exported restored session: %v", err)
	}
	want := coldMakespan(t, restored.Instance())
	if gr.Result.Makespan.Cmp(want.Makespan) != 0 {
		t.Fatalf("restored makespan != cold solve of restored instance")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	_ = s1.Shutdown(ctx)
	ts1.Close()
	_ = s2.Shutdown(ctx)
	ts2.Close()
}

// TestDeleteRemovesSnapshot checks a DELETEd session does not resurrect on
// the next boot.
func TestDeleteRemovesSnapshot(t *testing.T) {
	dir := t.TempDir()
	s1 := server.New(server.Config{Workers: 2, StateDir: dir, CheckpointInterval: time.Millisecond, Logger: testLogger(t)})
	ts1 := httptest1(t, s1)
	id, _ := createPersistedSession(t, ts1.URL, 51)
	// Wait for a checkpoint to land, then delete.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(filepath.Join(dir, id+".ccsnap")); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("checkpoint never landed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, _ := sessionCall(t, "DELETE", ts1.URL+"/v1/sessions/"+id, nil); code != http.StatusOK {
		t.Fatalf("delete failed: %d", code)
	}
	if _, err := os.Stat(filepath.Join(dir, id+".ccsnap")); !os.IsNotExist(err) {
		t.Fatalf("snapshot survived DELETE: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := s1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	_, ts2 := startServer(t, server.Config{Workers: 2, StateDir: dir, Logger: testLogger(t)})
	if code, _ := sessionCall(t, "GET", ts2.URL+"/v1/sessions/"+id, nil); code != http.StatusNotFound {
		t.Fatalf("deleted session resurrected: GET = %d", code)
	}
}

// TestStateDirMetricsExposed checks the new counters appear in /metrics
// with their wire names.
func TestStateDirMetricsExposed(t *testing.T) {
	dir := t.TempDir()
	_, ts := startServer(t, server.Config{Workers: 1, StateDir: dir, Logger: testLogger(t)})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{
		"snapshot_writes_total", "snapshot_write_errors_total",
		"snapshot_restores_total", "snapshot_corrupt_skipped_total",
		"restore_latency",
	} {
		if !strings.Contains(string(body), name) {
			t.Fatalf("/metrics missing %q:\n%s", name, body)
		}
	}
}
