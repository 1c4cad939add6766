package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"ccsched"
	"ccsched/internal/server"
)

// childEnv makes the test binary run ccserved's main instead of the tests,
// so a test can start, SIGKILL and restart a real ccserved process without
// a separate build step.
const childEnv = "CCSERVED_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// child is one ccserved process started from the test binary.
type child struct {
	cmd *exec.Cmd
	url string
}

// startChild runs ccserved on addr with args and waits until /healthz
// answers 200. Its logs go to the test log.
func startChild(t *testing.T, addr string, args ...string) *child {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	cmd.Stdout = testLogWriter{t}
	cmd.Stderr = testLogWriter{t}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := &child{cmd: cmd, url: "http://" + addr}
	t.Cleanup(func() {
		if c.cmd.ProcessState == nil {
			c.cmd.Process.Kill()
			c.cmd.Wait()
		}
	})
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(c.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("ccserved at %s not healthy within 30s", addr)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// testLogWriter writes each chunk of child output to t.Log.
type testLogWriter struct{ t *testing.T }

func (w testLogWriter) Write(p []byte) (int, error) {
	w.t.Log(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

// freeAddr returns a loopback address with a port that was free a moment
// ago.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// sessionRequest performs one /v1/sessions call and requires 200 with
// status done.
func sessionRequest(method, url string, body any) (*server.SessionResponse, error) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return nil, err
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var sr server.SessionResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return nil, fmt.Errorf("%s %s: HTTP %d: %w", method, url, resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK || sr.Status != server.StatusDone || sr.Result == nil {
		return nil, fmt.Errorf("%s %s: HTTP %d (%s): %s", method, url, resp.StatusCode, sr.Status, sr.Error)
	}
	return &sr, nil
}

// metrics reads the server's JSON /metrics snapshot.
func (c *child) metrics(t *testing.T) server.MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(c.url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m server.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSessionChurnSurvivesKill9 is the process-level crash-recovery proof.
// One PTAS session on a durable ccserved takes 8 rounds of 5% job resizes,
// and every round's makespan must equal an in-process cold Solve. After
// round 4 the server is killed with SIGKILL once a checkpoint of that round
// has landed, and restarted on the same state dir. The session must come
// back from its snapshot, and its next re-solve must reproduce the pre-kill
// makespan bit for bit and answer warm from the restored feasibility cache.
// Rounds 5-8 then run against the restarted server.
func TestSessionChurnSurvivesKill9(t *testing.T) {
	const (
		rounds    = 8
		killRound = rounds / 2
		churn     = 0.05
		resizePct = 2
		interval  = 200 * time.Millisecond
	)
	stateDir := t.TempDir()
	addr := freeAddr(t)
	args := []string{"-state-dir", stateDir, "-checkpoint", interval.String(), "-quiet"}
	srv := startChild(t, addr, args...)

	in, err := ccsched.Generate("uniform", ccsched.GeneratorConfig{
		N: 300, Classes: 30, Machines: 15, Slots: 3, PMax: 100, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := ccsched.Options{Variant: ccsched.Splittable, Tier: ccsched.TierPTAS, Epsilon: 1}
	sr, err := sessionRequest("POST", srv.url+"/v1/sessions?wait=5m", server.SessionCreateRequest{Instance: in, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	sessionURL := srv.url + "/v1/sessions/" + sr.SessionID + "?wait=5m"
	mirror, ids := in.Clone(), sr.JobIDs

	rng := rand.New(rand.NewSource(1*7717 + 5))
	for round := 1; round <= rounds; round++ {
		var delta server.SessionDelta
		for j := 0; j < int(churn*float64(len(ids))); j++ {
			pos := rng.Intn(len(ids))
			cur := mirror.P[pos]
			span := cur * resizePct / 100
			next := max(cur+rng.Int63n(2*span+1)-span, 1)
			mirror.P[pos] = next
			delta.Resize = append(delta.Resize, server.SessionResize{ID: ids[pos], P: next})
		}
		var writes int64
		if round == killRound {
			writes = srv.metrics(t).SnapshotWritesTotal
		}
		pr, err := sessionRequest("PATCH", sessionURL, delta)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ids = pr.JobIDs
		coldOpts := opts
		coldOpts.Cache = ccsched.NewFeasibilityCache()
		want, err := ccsched.Solve(context.Background(), mirror, coldOpts)
		if err != nil {
			t.Fatalf("round %d: cold solve: %v", round, err)
		}
		if pr.Result.Makespan.Cmp(want.Makespan) != 0 {
			t.Fatalf("round %d: session makespan %s != cold %s", round,
				pr.Result.Makespan.RatString(), want.Makespan.RatString())
		}
		if round != killRound {
			continue
		}

		// Let a checkpoint of this round land: wait for a write after the
		// PATCH was sent, then five more intervals, so a snapshot taken
		// before the PATCH finished is rewritten.
		deadline := time.Now().Add(30 * time.Second)
		for srv.metrics(t).SnapshotWritesTotal <= writes {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: no checkpoint written within 30s", round)
			}
			time.Sleep(interval / 4)
		}
		time.Sleep(5 * interval)
		if err := srv.cmd.Process.Signal(syscall.SIGKILL); err != nil {
			t.Fatal(err)
		}
		srv.cmd.Wait()
		http.DefaultClient.CloseIdleConnections()
		srv = startChild(t, addr, args...)

		if _, err := sessionRequest("GET", sessionURL, nil); err != nil {
			t.Fatalf("round %d: session not restored after restart: %v", round, err)
		}
		// Absolute resizes of every job make the restored instance equal the
		// mirror even if the checkpoint predates the last delta.
		var repair server.SessionDelta
		for pos, id := range ids {
			repair.Resize = append(repair.Resize, server.SessionResize{ID: id, P: mirror.P[pos]})
		}
		rr, err := sessionRequest("PATCH", sessionURL, repair)
		if err != nil {
			t.Fatalf("round %d: re-solve after restart: %v", round, err)
		}
		if rr.Result.Makespan.Cmp(pr.Result.Makespan) != 0 {
			t.Fatalf("round %d: makespan after restart %s != before kill %s", round,
				rr.Result.Makespan.RatString(), pr.Result.Makespan.RatString())
		}
		if rr.Result.Report.CacheHits == 0 {
			t.Fatalf("round %d: re-solve after restart ran cold (report %+v); warm state was not restored",
				round, rr.Result.Report)
		}
		if n := srv.metrics(t).SnapshotRestoresTotal; n < 1 {
			t.Fatalf("round %d: snapshot_restores_total %d after restart, want >= 1", round, n)
		}
	}

	if n := srv.metrics(t).SessionResolvesTotal; n < 1 {
		t.Fatalf("session_resolves_total %d after the churn, want >= 1", n)
	}
	if snaps, _ := filepath.Glob(filepath.Join(stateDir, "*.ccsnap")); len(snaps) == 0 {
		t.Fatalf("no .ccsnap checkpoint in %s", stateDir)
	}
	if err := srv.cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := srv.cmd.Wait(); err != nil {
		t.Fatalf("ccserved did not drain cleanly on SIGINT: %v", err)
	}
}
