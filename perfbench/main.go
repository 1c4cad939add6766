// Command perfbench is the ccsched benchmark: it runs one named workload
// against the library or the ccserved server for a fixed time, checks
// every output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as one JSON object on the last line of stdout.
//
//	go run . -workload ptas-coarse -seed 1 -seconds 20 -trace 0
//
// It measures from outside the program only: it times calls into public
// functions, folds the spans a traced Solve returns, and reads
// Result.Report and Server.Metrics. NOTES.md records the workloads, the
// metric definitions and the known cliffs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// endToEnd and perLayer name the metrics the final JSON line carries with
// -trace 0 and -trace 1; they mirror BENCHMARK.json.
var (
	endToEnd = []string{
		"setup_s", "latency_p50_ms", "quality_ratio", "full_tier_share", "ok_share",
	}
	perLayer = []string{
		"ccsched.solve_self_ms", "ccsched.deadline_overshoot_ms", "ccsched.delta_ms",
		"ccsched.rung0_ms", "ccsched.terminal_rung_ms",
		"core.lower_bound_ms", "core.validate_ms", "approx.solve_ms",
		"ptas.template_build_self_ms", "ptas.guess_search_self_ms", "ptas.probe_self_ms",
		"ptas.seed_window_self_ms", "ptas.binary_search_self_ms", "ptas.seeded_share",
		"ptas.guesses_per_op", "ptas.cache_hit_ratio", "ptas.cert_hits_per_op",
		"nfold.augment_self_ms", "nfold.augment_decides_share", "nfold.bb_self_ms",
		"ilp.bb_nodes_self_ms", "ilp.nodes_per_op", "ilp.warm_hit_ratio", "ilp.budget_exhausted_share",
		"lp.pivots_per_op", "lp.pivots_per_node", "lp.batch_self_ms",
		"server.solve_request_ms", "server.session_create_ms", "server.session_patch_ms",
		"server.solver_ms", "server.self_ms", "server.queue_wait_p50_ms", "server.queue_wait_p99_ms",
		"server.lru_hit_ratio", "server.coalesce_ratio", "server.degraded_served",
		"server.rejected_429", "server.solve_canceled", "server.refine_rungs",
		"loadgen.lag_p99_ms", "loadgen.conn_wait_ms",
		"trace.overhead_ratio",
		"e2e.latency_tail_ms", "e2e.ops_per_s", "e2e.degraded_share", "e2e.failed_share",
		"e2e.first_answer_p50_ms", "e2e.final_answer_p50_ms", "e2e.alloc_mb_per_op", "e2e.peak_rss_mb",
		"e2e.slo_rate_per_s",
	}
)

// config is one invocation's command line.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*recorder, error){
	"ptas-coarse":   runPTASCoarse,
	"session-churn": runSessionChurn,
	"serve-mix":     runServeMix,
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: ptas-coarse, session-churn or serve-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured duration")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced variant and prints the per-layer metrics")
	flag.Parse()
	cfg.trace = traceFlag == 1
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, traceFlag)
		os.Exit(2)
	}
	rec, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if err := report(os.Stdout, cfg, rec); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// op is the outcome of one measured operation.
type op struct {
	latMs    float64 // call to return (closed loop); due time to last byte (open loop)
	firstMs  float64 // to the first usable answer; 0 when the op has none of its own
	finalMs  float64 // to the terminal answer; 0 when the op has none of its own
	degraded bool    // answered by the approx fallback or a soft timeout
	failed   bool    // error, refusal or failed output check
	quality  float64 // Makespan / LowerBound of the answer; 0 when the op returns no schedule
	notP50   bool    // left out of latency_p50_ms (serve-mix: see runServeMix)
}

// recorder collects a run's ops, set-up times and per-layer values.
type recorder struct {
	ops       []op
	setups    []float64 // seconds per set-up repetition
	firstErr  error     // first failed output check, kept for the report
	wall      time.Duration
	allocs    uint64             // bytes allocated by the process while measuring
	layer     map[string]float64 // per-layer metrics, filled by the workload
	notes     []string           // extra report lines
	sloRate   float64            // serve-mix only
	openLoop  bool               // ops_per_s counts against wall time, not busy time
	memBefore runtime.MemStats
}

func newRecorder() *recorder { return &recorder{layer: map[string]float64{}} }

// start marks the beginning of the measured region.
func (r *recorder) start() { runtime.ReadMemStats(&r.memBefore) }

// stop marks its end.
func (r *recorder) stop(wall time.Duration) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.allocs = m.TotalAlloc - r.memBefore.TotalAlloc
	r.wall = wall
}

// fail records a failed op with its cause.
func (r *recorder) fail(o op, err error) {
	o.failed = true
	r.ops = append(r.ops, o)
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// endToEndMetrics computes every end-to-end figure of the run, including
// those the JSON line does not carry.
func (r *recorder) endToEndMetrics() map[string]metric {
	var lat, p50, first, final []float64
	var busy, qsum float64
	failed, degraded, answered, scheduled := 0, 0, 0, 0
	for _, o := range r.ops {
		if o.failed {
			failed++
			continue
		}
		answered++
		lat = append(lat, o.latMs)
		if !o.notP50 {
			p50 = append(p50, o.latMs)
		}
		busy += o.latMs
		if o.quality > 0 {
			qsum += o.quality
			scheduled++
		}
		if o.degraded {
			degraded++
		}
		if o.firstMs > 0 {
			first = append(first, o.firstMs)
		}
		if o.finalMs > 0 {
			final = append(final, o.finalMs)
		}
	}
	attempted := len(r.ops)
	tailV, tailP := tail(lat)
	m := map[string]metric{
		"setup_s":             {median(r.setups), "s"},
		"latency_p50_ms":      {median(p50), "ms"},
		"latency_tail_ms":     {tailV, "ms"},
		"latency_tail_pct":    {tailP, "%"},
		"ops_per_s":           {0, "1/s"},
		"quality_ratio":       {0, "1"},
		"degraded_share":      {share(degraded, attempted), "1"},
		"full_tier_share":     {share(answered-degraded, attempted), "1"},
		"failed_share":        {share(failed, attempted), "1"},
		"ok_share":            {share(answered, attempted), "1"},
		"first_answer_p50_ms": {median(first), "ms"},
		"final_answer_p50_ms": {median(final), "ms"},
		"alloc_mb_per_op":     {0, "MB"},
		"peak_rss_mb":         {peakRSSMB(), "MB"},
		"slo_rate_per_s":      {r.sloRate, "1/s"},
	}
	switch {
	case r.openLoop && r.wall > 0:
		m["ops_per_s"] = metric{float64(answered) / r.wall.Seconds(), "1/s"}
	case busy > 0:
		m["ops_per_s"] = metric{float64(answered) / (busy / 1000), "1/s"}
	}
	if scheduled > 0 {
		m["quality_ratio"] = metric{qsum / float64(scheduled), "1"}
	}
	if attempted > 0 {
		m["alloc_mb_per_op"] = metric{float64(r.allocs) / (1 << 20) / float64(attempted), "MB"}
	}
	return m
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a readable summary of every metric, then the result line.
func report(w io.Writer, cfg config, r *recorder) error {
	e2e := r.endToEndMetrics()
	attempted, failed := len(r.ops), 0
	for _, o := range r.ops {
		if o.failed {
			failed++
		}
	}
	correct := failed == 0
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v: attempted %d succeeded %d failed %d, output check %s (wall %.1fs)\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, attempted, attempted-failed, failed, verdict(correct), r.wall.Seconds())
	if r.firstErr != nil {
		fmt.Fprintf(w, "  first failure: %v\n", r.firstErr)
	}
	fmt.Fprintf(w, "  set-ups (s):")
	for _, v := range r.setups {
		fmt.Fprintf(w, " %.4f", v)
	}
	fmt.Fprintln(w)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, k := range sortedKeys(e2e) {
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", k, e2e[k].Value, e2e[k].Unit)
	}
	out := map[string]metric{}
	if cfg.trace {
		for _, k := range perLayer {
			if name, ok := strings.CutPrefix(k, "e2e."); ok {
				r.layer[k] = e2e[name].Value
			}
		}
		for _, k := range sortedKeys(r.layer) {
			fmt.Fprintf(w, "  %-34s %14.4f\n", k, r.layer[k])
		}
		for _, k := range perLayer {
			out[k] = metric{r.layer[k], layerUnit(k)}
		}
	} else {
		for _, k := range endToEnd {
			out[k] = e2e[k]
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func verdict(ok bool) string {
	if ok {
		return "passed"
	}
	return "FAILED"
}

// layerUnit derives a per-layer metric's unit from its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_mb_per_op"), strings.HasSuffix(name, "_mb"):
		return "MB"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_per_op"), strings.HasSuffix(name, "_per_node"):
		return "count"
	case strings.HasPrefix(name, "server.") && !strings.HasSuffix(name, "_ratio"):
		return "count"
	}
	return "1"
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// msSince is the time since t in milliseconds.
func msSince(t time.Time) float64 { return durMs(time.Since(t)) }

// durMs converts a duration to milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
