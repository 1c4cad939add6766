package ccsched

// Crash-recovery tests for durable sessions. The contract under test is
// two-sided: a clean snapshot restores *warm* (the next solve answers its
// probes from the restored verdicts), while a damaged one —
// truncated, bit-flipped, version-bumped, digest-spliced — either fails the
// restore outright (envelope damage) or degrades the damaged section to a
// cold solve (warm-section damage). In every surviving case the restored
// session's makespan must be bit-identical to a cold solve of the same
// instance; no corruption may ever surface as a wrong answer.

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"
)

// snapshotTestSession builds a small session, runs it through a couple of
// delta rounds so it accumulates warm state, and returns it solved.
func snapshotTestSession(t *testing.T, opts Options) *Session {
	t.Helper()
	in, err := Generate("uniform", GeneratorConfig{
		N: 60, Classes: 8, Machines: 5, Slots: 2, PMax: 1000, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSession(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := sess.Solve(ctx); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 2; round++ {
		ids := sess.JobIDs()
		for i := 0; i < 4; i++ {
			if err := sess.Resize(ids[rng.Intn(len(ids))], 1+rng.Int63n(1000)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sess.Solve(ctx); err != nil {
			t.Fatal(err)
		}
	}
	return sess
}

var snapshotTestOpts = Options{Variant: Splittable, Tier: TierPTAS, Epsilon: 1}

// requireColdParity fails unless sess solves to the same makespan as a cold
// solve of its instance with a fresh cache.
func requireColdParity(t *testing.T, sess *Session) *Result {
	t.Helper()
	ctx := context.Background()
	got, err := sess.Solve(ctx)
	if err != nil {
		t.Fatalf("restored session solve: %v", err)
	}
	coldOpts := sess.Options()
	coldOpts.Cache = NewFeasibilityCache()
	want, err := Solve(ctx, sess.Instance(), coldOpts)
	if err != nil {
		t.Fatalf("cold reference solve: %v", err)
	}
	if got.Makespan.Cmp(want.Makespan) != 0 {
		t.Fatalf("restored session makespan %s != cold %s", got.Makespan.RatString(), want.Makespan.RatString())
	}
	return got
}

// TestSessionSnapshotRoundTrip checks the full warm path: snapshot, restore
// in a "new process", re-solve. The restored solve must be bit-identical to
// cold and answer its probes from the restored cache (warm restore), and
// the restored session must keep accepting deltas with intact parity.
func TestSessionSnapshotRoundTrip(t *testing.T) {
	sess := snapshotTestSession(t, snapshotTestOpts)
	data, err := sess.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(data)
	if err != nil {
		t.Fatalf("RestoreSession: %v", err)
	}
	if got, want := restored.JobIDs(), sess.JobIDs(); len(got) != len(want) {
		t.Fatalf("restored %d job ids, want %d", len(got), len(want))
	} else {
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("job id %d restored as %d, want %d", i, got[i], want[i])
			}
		}
	}
	res := requireColdParity(t, restored)
	if res.Report.CacheHits == 0 {
		t.Fatalf("restored re-solve answered no probe from the restored cache (report %+v)", res.Report)
	}
	// The restored session must still be a session: deltas apply, ids mint
	// past the snapshot's NextID, and parity holds after mutation.
	newIDs, err := restored.AddJobs([]int64{500}, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range restored.JobIDs()[:len(restored.JobIDs())-1] {
		if newIDs[0] == id {
			t.Fatalf("restored session minted duplicate job id %d", newIDs[0])
		}
	}
	requireColdParity(t, restored)

	// Snapshots written by older versions carry sections this one no longer
	// reads: engine_parallelism and parallelism options, and a "state"
	// member with carried template parameters and a "seeds" section whose
	// seeds also carry a Farkas "ray" and a root-basis "root". Such a
	// snapshot must still restore and re-solve to the makespan of a fresh
	// session on the same instance.
	fresh, err := NewSession(sess.Instance(), sess.Options())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, splice := range []struct{ at, with string }{
		{`"options":{`, `"options":{"engine_parallelism":4,"parallelism":2,`},
		{`"job_ids":`, `"state":{"split":{"g":1,"limit":100000,"slots":2},"pre":{"g":2,"limit":100000,"slots":2},` +
			`"seeds":[{"tag":0,"guess":40,"scale":1,"ray":[4607182418800017408,0],` +
			`"root":{"cols":[1],"status":[0,3],"art_sign":[1],"m":1,"ncols":2}}]},"job_ids":`},
	} {
		legacy := bytes.Replace(data, []byte(splice.at), []byte(splice.with), 1)
		if bytes.Equal(legacy, data) {
			t.Fatalf("snapshot has no %s to extend", splice.at)
		}
		old, err := RestoreSession(legacy)
		if err != nil {
			t.Fatalf("RestoreSession of a snapshot with %s: %v", splice.with, err)
		}
		got, err := old.Solve(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got.Makespan.Cmp(want.Makespan) != 0 {
			t.Fatalf("legacy snapshot (%s) makespan %s != fresh session %s",
				splice.with, got.Makespan.RatString(), want.Makespan.RatString())
		}
	}
}

// TestSessionSnapshotEncodeFixedPoint checks that encode(decode(encode(s)))
// == encode(decode(s)): once a snapshot has been through one restore, the
// codec is a byte-exact fixed point (deterministic export order, exact
// float round trips).
func TestSessionSnapshotEncodeFixedPoint(t *testing.T) {
	sess := snapshotTestSession(t, snapshotTestOpts)
	data, err := sess.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	r1, err := RestoreSession(data)
	if err != nil {
		t.Fatal(err)
	}
	data1, err := r1.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RestoreSession(data1)
	if err != nil {
		t.Fatalf("restore of re-encoded snapshot: %v", err)
	}
	data2, err := r2.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data1, data2) {
		t.Fatalf("snapshot re-encode is not a fixed point:\n%s\nvs\n%s", data1, data2)
	}
}

// TestSessionSnapshotVersionBump checks that a snapshot from a different
// schema version is refused outright — the one kind of damage that must not
// restore at all, because nothing in the document can be interpreted.
func TestSessionSnapshotVersionBump(t *testing.T) {
	sess := snapshotTestSession(t, snapshotTestOpts)
	data, err := sess.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["version"] = json.RawMessage("999")
	bumped, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreSession(bumped); err == nil {
		t.Fatal("version-bumped snapshot restored; want refusal")
	}
}

// TestSessionSnapshotTruncated checks that prefixes of a valid snapshot
// never panic and never produce a session whose solve disagrees with cold.
func TestSessionSnapshotTruncated(t *testing.T) {
	sess := snapshotTestSession(t, snapshotTestOpts)
	data, err := sess.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(data) / 4, len(data) / 2, len(data) - 1} {
		restored, err := RestoreSession(data[:cut])
		if err != nil {
			continue // refused: fine
		}
		requireColdParity(t, restored)
	}
}

// TestSessionSnapshotCorruptCacheDegradesToCold flips the verdict evidence
// of every restored cache entry (solution cells and ray bits) and checks
// that the re-verification layer drops the damaged entries: the solve still
// succeeds and still matches cold exactly. This is the dropped-never-
// trusted invariant end to end — corrupt warm state costs time, never
// correctness.
func TestSessionSnapshotCorruptCacheDegradesToCold(t *testing.T) {
	sess := snapshotTestSession(t, snapshotTestOpts)
	data, err := sess.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version  int             `json:"version"`
		Options  json.RawMessage `json:"options"`
		Instance json.RawMessage `json:"instance"`
		JobIDs   json.RawMessage `json:"job_ids"`
		NextID   json.RawMessage `json:"next_id"`
		Digest   json.RawMessage `json:"instance_digest"`
		State    json.RawMessage `json:"state,omitempty"`
		Cache    *struct {
			Entries []map[string]json.RawMessage `json:"entries"`
		} `json:"cache,omitempty"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Cache == nil || len(doc.Cache.Entries) == 0 {
		t.Fatal("test snapshot carries no cache entries; nothing to corrupt")
	}
	for _, e := range doc.Cache.Entries {
		if x, ok := e["x"]; ok {
			var sol [][]int64
			if err := json.Unmarshal(x, &sol); err != nil {
				t.Fatal(err)
			}
			if len(sol) > 0 && len(sol[0]) > 0 {
				sol[0][0] += 12345 // breaks Check: bounds or balance
			}
			fixed, err := json.Marshal(sol)
			if err != nil {
				t.Fatal(err)
			}
			e["x"] = fixed
		}
		if r, ok := e["ray"]; ok {
			var ray []uint64
			if err := json.Unmarshal(r, &ray); err != nil {
				t.Fatal(err)
			}
			for i := range ray {
				ray[i] = 0 // an all-zero ray certifies nothing
			}
			fixed, err := json.Marshal(ray)
			if err != nil {
				t.Fatal(err)
			}
			e["ray"] = fixed
		}
	}
	corrupt, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(corrupt)
	if err != nil {
		t.Fatalf("corrupt-cache snapshot must still restore (envelope intact): %v", err)
	}
	requireColdParity(t, restored)
}

// TestSessionSnapshotDigestMismatchDropsWarmState edits the instance inside
// the snapshot without updating the digest; the envelope restores but the
// warm sections must be dropped (they were learned on a different
// instance), and the solve must match a cold solve of the edited instance.
func TestSessionSnapshotDigestMismatchDropsWarmState(t *testing.T) {
	sess := snapshotTestSession(t, snapshotTestOpts)
	data, err := sess.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var in Instance
	if err := json.Unmarshal(doc["instance"], &in); err != nil {
		t.Fatal(err)
	}
	in.P[0] += 17
	edited, err := json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	doc["instance"] = edited
	spliced, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSession(spliced)
	if err != nil {
		t.Fatalf("digest-mismatched snapshot must still restore the envelope: %v", err)
	}
	res := requireColdParity(t, restored)
	// With the cache section dropped, the restored session's first solve
	// must search exactly like a fresh session's on the edited instance:
	// a surviving cache section would answer probes.
	fresh, err := NewSession(&in, sess.Options())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Solve(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Guesses != want.Report.Guesses || res.Report.CacheHits != want.Report.CacheHits {
		t.Fatalf("digest-mismatched restore searched with warm state: %d guesses, %d cache hits; a fresh session takes %d and %d",
			res.Report.Guesses, res.Report.CacheHits, want.Report.Guesses, want.Report.CacheHits)
	}
}

// TestSessionSnapshotBitFlips flips single bits across a valid snapshot and
// requires: no panic, and any snapshot that does restore solves to the cold
// makespan. Most flips land in JSON syntax or the envelope (refused); some
// land in warm-section payloads (dropped or re-verified away).
func TestSessionSnapshotBitFlips(t *testing.T) {
	sess := snapshotTestSession(t, snapshotTestOpts)
	data, err := sess.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		flipped := append([]byte(nil), data...)
		pos := rng.Intn(len(flipped))
		flipped[pos] ^= 1 << uint(rng.Intn(8))
		restored, err := RestoreSession(flipped)
		if err != nil {
			continue
		}
		requireColdParity(t, restored)
	}
}

// TestSessionSnapshotNoCache checks that a NoCache session snapshots and
// restores without a cache section and still solves correctly.
func TestSessionSnapshotNoCache(t *testing.T) {
	opts := snapshotTestOpts
	opts.NoCache = true
	sess := snapshotTestSession(t, opts)
	data, err := sess.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"cache"`)) {
		t.Fatal("NoCache session snapshot contains a cache section")
	}
	restored, err := RestoreSession(data)
	if err != nil {
		t.Fatal(err)
	}
	requireColdParity(t, restored)
}
