// Command benchdiff is the CI perf-regression gate: it compares a `go test
// -bench` run against the committed BENCH_BASELINE.json and fails (exit 1)
// when any gated benchmark regressed beyond the thresholds — by default
// >25% ns/op or >10% allocs/op.
//
// Raw ns/op numbers are not portable across hosts, so the gate normalizes
// by host speed: both the baseline and every run carry a calibration
// measurement (a fixed single-threaded SHA-256 workload benchdiff times
// itself), and ns/op thresholds are scaled by the ratio of the two before
// comparison. Allocation counts are host-independent and compared as is.
// The calibration scale is clamped to [0.25, 4]: a host further than 4×
// from the baseline machine should re-baseline instead.
//
// Usage:
//
//	go test -run '^$' -bench 'E1SplittableApprox$' -benchmem | tee bench.txt
//	go run ./scripts/benchdiff -baseline BENCH_BASELINE.json -in bench.txt
//
// Input may be plain `go test -bench` output or a `go test -json` stream
// (benchmark lines are extracted from the Output events). Multiple runs of
// the same benchmark (-count > 1) are aggregated by minimum, the standard
// noise-robust choice for gating.
//
// Re-baselining (after an intentional perf change, or to adopt a new
// runner class): run the gated benchmarks on the reference machine and
// write the baseline with -update:
//
//	go test -run '^$' -bench 'E1SplittableApprox$|E10PTASTier$|SessionChurn$' \
//	    -benchtime 3x -benchmem | go run ./scripts/benchdiff -update -baseline BENCH_BASELINE.json
//
// Only benchmarks present in the baseline gate the build; extra benchmarks
// in the run are ignored, and baseline entries missing from the run fail
// the gate (so a renamed benchmark cannot silently stop being gated).
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// baselineFile is the schema of BENCH_BASELINE.json.
type baselineFile struct {
	// Note documents how to re-baseline; informational.
	Note string `json:"note,omitempty"`
	// CalibrationNs is the reference host's calibration time (see
	// calibrate).
	CalibrationNs float64 `json:"calibration_ns"`
	// NumCPU is the reference host's CPU count; informational, it
	// documents the host the baseline was recorded on.
	NumCPU int `json:"num_cpu,omitempty"`
	// Benchmarks maps benchmark names (GOMAXPROCS suffix stripped) to their
	// reference numbers.
	Benchmarks map[string]benchNumbers `json:"benchmarks"`
}

// benchNumbers are the gated per-benchmark metrics.
type benchNumbers struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// benchLine matches one `go test -bench` result line.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+(.*)$`)

// parseBench extracts benchmark results from r (plain or -json stream),
// aggregating duplicates by min ns/op (and its paired allocs).
func parseBench(r io.Reader) (map[string]benchNumbers, error) {
	out := make(map[string]benchNumbers)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev struct {
				Output string `json:"Output"`
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				continue
			}
			line = strings.TrimSuffix(ev.Output, "\n")
		}
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		name := stripProcs(m[1])
		fields := strings.Fields(m[2])
		var ns float64
		var allocs int64
		ok := false
		for i := 0; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				ns, ok = v, true
			case "allocs/op":
				allocs = int64(v)
			}
		}
		if !ok {
			continue
		}
		if prev, seen := out[name]; !seen || ns < prev.NsPerOp {
			out[name] = benchNumbers{NsPerOp: ns, AllocsPerOp: allocs}
		}
	}
	return out, sc.Err()
}

// stripProcs removes the trailing -<GOMAXPROCS> suffix Go appends to
// benchmark names.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// calibrate times a fixed CPU-bound workload (sequential SHA-256 over 16
// MiB, best of three) to measure this host's single-thread speed. The
// workload has no allocations and no code from the repository, so it moves
// only with the hardware, never with the change under test.
func calibrate() float64 {
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(uint32(i) * 2654435761)
	}
	best := time.Duration(1<<63 - 1)
	for trial := 0; trial < 3; trial++ {
		start := time.Now()
		h := sha256.New()
		for i := 0; i < 16; i++ {
			h.Write(buf)
		}
		h.Sum(nil)
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchdiff: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		baselinePath = flag.String("baseline", "BENCH_BASELINE.json", "baseline file")
		in           = flag.String("in", "-", "bench output to compare ('-' = stdin)")
		maxNs        = flag.Float64("max-ns-regress", 0.25, "maximum tolerated ns/op regression (fraction)")
		maxAllocs    = flag.Float64("max-allocs-regress", 0.10, "maximum tolerated allocs/op regression (fraction)")
		update       = flag.Bool("update", false, "write the baseline from this run instead of comparing")
		noCal        = flag.Bool("skip-calibration", false, "compare raw ns/op without host-speed normalization")
	)
	flag.Parse()

	var src io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			fatalf("%v", err)
		}
		defer f.Close()
		src = f
	}
	run, err := parseBench(src)
	if err != nil {
		fatalf("parsing bench output: %v", err)
	}
	if len(run) == 0 {
		fatalf("no benchmark results found in %s", *in)
	}

	if *update {
		bf := baselineFile{
			Note:          "perf-regression gate reference; re-baseline with: go test -run '^$' -bench <gated> -benchtime 3x -count 2 -benchmem | go run ./scripts/benchdiff -update -baseline BENCH_BASELINE.json",
			CalibrationNs: calibrate(),
			NumCPU:        runtime.NumCPU(),
			Benchmarks:    run,
		}
		data, err := json.MarshalIndent(bf, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*baselinePath, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("benchdiff: wrote %s with %d benchmarks (calibration %.0f ns)\n", *baselinePath, len(run), bf.CalibrationNs)
		return
	}

	data, err := os.ReadFile(*baselinePath)
	if err != nil {
		fatalf("%v", err)
	}
	var base baselineFile
	if err := json.Unmarshal(data, &base); err != nil {
		fatalf("parsing %s: %v", *baselinePath, err)
	}
	scale := 1.0
	if !*noCal && base.CalibrationNs > 0 {
		scale = calibrate() / base.CalibrationNs
		if scale < 0.25 {
			scale = 0.25
		}
		if scale > 4 {
			scale = 4
		}
	}
	fmt.Printf("benchdiff: host-speed scale %.3f (ns/op thresholds scaled accordingly)\n", scale)

	names := make([]string, 0, len(base.Benchmarks))
	for name := range base.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)
	failed := 0
	for _, name := range names {
		want := base.Benchmarks[name]
		got, ok := run[name]
		if !ok {
			fmt.Printf("FAIL %s: gated benchmark missing from the run\n", name)
			failed++
			continue
		}
		nsLimit := want.NsPerOp * scale * (1 + *maxNs)
		allocLimit := float64(want.AllocsPerOp) * (1 + *maxAllocs)
		nsRatio := got.NsPerOp / (want.NsPerOp * scale)
		switch {
		case got.NsPerOp > nsLimit:
			fmt.Printf("FAIL %s: ns/op %.0f vs baseline %.0f (scaled) — %.2fx exceeds the %.0f%% budget\n",
				name, got.NsPerOp, want.NsPerOp*scale, nsRatio, *maxNs*100)
			failed++
		case float64(got.AllocsPerOp) > allocLimit && want.AllocsPerOp > 0:
			fmt.Printf("FAIL %s: allocs/op %d vs baseline %d exceeds the %.0f%% budget\n",
				name, got.AllocsPerOp, want.AllocsPerOp, *maxAllocs*100)
			failed++
		default:
			fmt.Printf("ok   %s: ns/op %.2fx of baseline, allocs %d vs %d\n",
				name, nsRatio, got.AllocsPerOp, want.AllocsPerOp)
		}
	}
	if failed > 0 {
		fatalf("%d of %d gated benchmarks regressed", failed, len(names))
	}
	fmt.Printf("benchdiff: all %d gated benchmarks within budget\n", len(names))
}
