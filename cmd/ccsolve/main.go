// Command ccsolve reads a CCS instance and solves it through the unified
// ccsched.Solve API, reporting the makespan, the certified lower bound and
// the resulting ratio, and validating the schedule before printing.
//
// Usage:
//
//	ccsolve -in inst.ccs -variant splittable -algo approx
//	ccsolve -in inst.ccs -variant nonpreemptive -algo ptas -eps 0.5
//	ccsolve -in inst.ccs -variant nonpreemptive -algo ptas -timeout 30s
//	ccsolve -in inst.ccs -variant nonpreemptive -algo exact
//	ccsolve -in inst.ccs -variant splittable -algo ptas -trace
//	ccgen -n 50 -json | ccsolve -variant preemptive -algo ptas
//
// With -in - (or no -in at all) the instance is read from stdin. Both the
// textual format and the JSON wire format are accepted; a leading '{'
// selects JSON.
//
// -timeout aborts the solve via context cancellation, which reaches the ILP
// engines at iteration boundaries.
//
// -trace records a per-stage span timeline through the pipeline
// (guess search, probes, N-fold engines, branch-and-bound node batches) and
// pretty-prints it after the report: the span tree with durations and
// counters, self time per stage, and the five slowest probes. Tracing never
// changes verdicts, guesses or makespans.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/big"
	"os"
	"strings"
	"time"

	"ccsched"
)

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ccsolve:", err)
	os.Exit(1)
}

// parseAnyInstance accepts both instance encodings: a leading '{' selects
// the JSON wire format, anything else the textual format.
func parseAnyInstance(data []byte) (*ccsched.Instance, error) {
	if trimmed := strings.TrimSpace(string(data)); strings.HasPrefix(trimmed, "{") {
		in := &ccsched.Instance{}
		if err := json.Unmarshal([]byte(trimmed), in); err != nil {
			return nil, err
		}
		return in, nil
	}
	return ccsched.ParseInstance(string(data))
}

func main() {
	var (
		inFile    = flag.String("in", "-", "instance file, textual or JSON format (- = stdin)")
		variant   = flag.String("variant", "splittable", "splittable | preemptive | nonpreemptive")
		algo      = flag.String("algo", "approx", "auto | approx | ptas | exact")
		eps       = flag.Float64("eps", 0.5, "PTAS accuracy ε")
		timeout   = flag.Duration("timeout", 0, "abort the solve after this duration (0 = no limit)")
		traceFlag = flag.Bool("trace", false, "record a per-stage span timeline and print it after the report")
	)
	flag.Parse()
	var (
		data []byte
		err  error
	)
	if *inFile == "" || *inFile == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*inFile)
	}
	if err != nil {
		fail(err)
	}
	in, err := parseAnyInstance(data)
	if err != nil {
		fail(err)
	}
	var v ccsched.Variant
	switch *variant {
	case "splittable":
		v = ccsched.Splittable
	case "preemptive":
		v = ccsched.Preemptive
	case "nonpreemptive":
		v = ccsched.NonPreemptive
	default:
		fail(fmt.Errorf("unknown variant %q", *variant))
	}
	var tier ccsched.Tier
	switch *algo {
	case "auto":
		tier = ccsched.TierAuto
	case "approx":
		tier = ccsched.TierApprox
	case "ptas":
		tier = ccsched.TierPTAS
	case "exact":
		tier = ccsched.TierExact
	default:
		fail(fmt.Errorf("unknown algorithm %q", *algo))
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	start := time.Now()
	res, err := ccsched.Solve(ctx, in, ccsched.Options{
		Variant: v,
		Tier:    tier,
		Epsilon: *eps,
		Trace:   *traceFlag,
	})
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)
	// Validate whichever schedule the solve produced.
	var detail string
	switch {
	case res.CompactSplit != nil:
		if err := res.CompactSplit.Validate(in); err != nil {
			fail(err)
		}
		detail = fmt.Sprintf("groups=%d", len(res.CompactSplit.Groups))
	case res.Preemptive != nil:
		if err := res.Preemptive.Validate(in); err != nil {
			fail(err)
		}
		detail = fmt.Sprintf("pieces=%d", res.Preemptive.PieceCount())
	case res.NonPreemptive != nil:
		if err := res.NonPreemptive.Validate(in); err != nil {
			fail(err)
		}
		detail = "assignment"
	default:
		detail = "makespan only"
	}
	if res.Tier == ccsched.TierPTAS {
		detail += fmt.Sprintf(" guess=%d probes=%d engine=%s cache-hits=%d",
			res.Report.Guess, res.Report.Guesses, res.Report.Engine, res.Report.CacheHits)
	}
	rf := 0.0
	if res.LowerBound.Sign() > 0 {
		rf, _ = new(big.Rat).Quo(res.Makespan, res.LowerBound).Float64()
	}
	fmt.Printf("instance : n=%d C=%d m=%d c=%d\n", in.N(), in.NumClasses(), in.M, in.Slots)
	fmt.Printf("algorithm: %s (%s)\n", res.Tier, *variant)
	fmt.Printf("makespan : %s\n", res.Makespan.RatString())
	fmt.Printf("lower bnd: %s\n", res.LowerBound.RatString())
	fmt.Printf("ratio    : %.4f (vs certified lower bound)\n", rf)
	fmt.Printf("detail   : %s\n", detail)
	fmt.Printf("time     : %s\n", elapsed.Round(time.Microsecond))
	if res.Trace != nil {
		fmt.Println()
		res.Trace.Render(os.Stdout)
	}
}
