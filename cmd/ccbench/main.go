// Command ccbench regenerates the experiment tables indexed in the
// "Paper-to-code map" of docs/ARCHITECTURE.md: E1–E8 measure the paper's
// theorems, E9 measures the parallel guess search and feasibility cache,
// F1–F5 execute the paper's figures.
//
// Usage:
//
//	ccbench                      # run everything, markdown to stdout
//	ccbench -exp E1,E4,F5        # run a subset
//	ccbench -exp E9 -parallelism 8 -timeout 10m
//	ccbench -json results.json   # additionally write machine-readable JSON
//	ccbench -exp E8 -cpuprofile cpu.out -memprofile mem.out
//
// -cpuprofile/-memprofile write runtime/pprof profiles of the selected
// experiments (flushed on normal exit; an experiment failure exits without
// flushing), so solver hot spots can be inspected with `go tool pprof`
// without building a separate harness.
//
// -parallelism sets the worker count E9 compares against the sequential
// search; -timeout aborts the whole run via context cancellation (enforced
// between experiments, and inside the context-aware ones down to the ILP
// iteration). The -json file holds the same tables as structured data
// ({id, title, claim, columns, rows, notes} per experiment), so benchmark
// runs can be archived and diffed (see BENCH_PR1.json and BENCH_PR2.json
// at the repository root).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"ccsched/internal/experiments"
)

// jsonTable is the machine-readable form of an experiments.Table.
type jsonTable struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Claim   string     `json:"claim"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

func main() {
	var (
		exps        = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		jsonPath    = flag.String("json", "", "write results as JSON to this file")
		parallelism = flag.Int("parallelism", 8, "guess-search workers for E9's parallel rows")
		timeout     = flag.Duration("timeout", 0, "abort the whole run after this duration (0 = no limit)")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile (post-run) to this file")
	)
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "ccbench: memprofile: %v\n", err)
			}
		}()
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	all := map[string]func() (*experiments.Table, error){
		"E1": experiments.E1Splittable,
		"E2": experiments.E2Preemptive,
		"E3": experiments.E3NonPreemptive,
		"E4": experiments.E4Scaling,
		"E5": experiments.E5SplittablePTAS,
		"E6": experiments.E6NonPreemptivePTAS,
		"E7": experiments.E7PreemptivePTAS,
		"E8": experiments.E8NFold,
		"E9": func() (*experiments.Table, error) { return experiments.E9ParallelGuess(ctx, *parallelism) },
		"F1": experiments.F1RoundRobin,
		"F2": experiments.F2Repack,
		"F3": experiments.F3PairSwap,
		"F4": experiments.F4Dissolve,
		"F5": experiments.F5FlowNetwork,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "F1", "F2", "F3", "F4", "F5"}
	var run []string
	if *exps == "" {
		run = order
	} else {
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(strings.ToUpper(id))
			if _, ok := all[id]; !ok {
				fmt.Fprintf(os.Stderr, "ccbench: unknown experiment %q\n", id)
				os.Exit(1)
			}
			run = append(run, id)
		}
	}
	var collected []jsonTable
	for _, id := range run {
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %v before %s\n", err, id)
			os.Exit(1)
		}
		tb, err := all[id]()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: %s: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(tb.Format())
		if *jsonPath != "" {
			collected = append(collected, jsonTable{
				ID: tb.ID, Title: tb.Title, Claim: tb.Claim,
				Columns: tb.Columns, Rows: tb.Rows, Notes: tb.Notes,
			})
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(collected, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: encoding JSON: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "ccbench: writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
	}
}
