package main

import (
	"sort"

	"ccsched"
)

// Span statuses the fold reads from span attributes: nfold's Feasible and
// ilp's NodeLimit (internal/nfold and internal/ilp number them so).
const (
	nfoldFeasible = 0
	ilpNodeLimit  = 2
)

// ledger folds the span timelines that traced solves return in
// Result.Trace into per-layer self times and probe outcome counts. It
// only reads the public trace format; it adds nothing to the program.
type ledger struct {
	selfUs map[string]int64 // summed self time by span name
	traces int              // timelines folded

	engineProbes    int // probes that ran the N-fold engines
	augmentDecided  int // ...settled by augmentation, without branch and bound
	budgetExhausted int // ...whose branch and bound hit its node cap
	searches        int // guess_search spans
	seededSearches  int // ...that ran the session-seeded search
}

func newLedger() *ledger { return &ledger{selfUs: map[string]int64{}} }

// fold adds one solve's timeline. A span's self time is its duration minus
// the union of its children's intervals (speculative probes overlap under
// guess_search, so children may not be summed). Aggregated rows, the
// spans past the per-solve cap, carry no intervals and are folded in as
// leaves under their names.
func (l *ledger) fold(t *ccsched.SolveTrace) {
	if t == nil {
		return
	}
	l.traces++
	children := make([][]int, len(t.Spans))
	for i, sp := range t.Spans {
		if sp.Parent >= 0 && sp.Parent < len(t.Spans) {
			children[sp.Parent] = append(children[sp.Parent], i)
		}
	}
	for i, sp := range t.Spans {
		l.selfUs[sp.Name] += selfTime(t.Spans, i, children[i])
		switch sp.Name {
		case "probe":
			l.foldProbe(t.Spans, children[i])
		case "guess_search":
			l.searches++
			if v, _ := sp.Attr("seeded"); v == 1 {
				l.seededSearches++
			}
		}
	}
	for _, a := range t.Aggregated {
		l.selfUs[a.Name] += a.TotalUs
	}
}

// foldProbe classifies one probe by its engine children.
func (l *ledger) foldProbe(spans []ccsched.TraceSpan, kids []int) {
	augment, augmentOK, bb := false, false, false
	for _, k := range kids {
		switch spans[k].Name {
		case "nfold_augment":
			augment = true
			if v, ok := spans[k].Attr("status"); ok && v == nfoldFeasible {
				augmentOK = true
			}
		case "bb":
			bb = true
			if v, _ := spans[k].Attr("status"); v == ilpNodeLimit {
				l.budgetExhausted++
			}
		}
	}
	if !augment && !bb {
		return // answered from the cache or a carried certificate
	}
	l.engineProbes++
	if augmentOK && !bb {
		l.augmentDecided++
	}
}

// selfTime is span i's duration minus the part of its interval covered by
// the union of its children's intervals.
func selfTime(spans []ccsched.TraceSpan, i int, kids []int) int64 {
	lo, hi := spans[i].StartUs, spans[i].StartUs+spans[i].DurUs
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].StartUs, lo), min(spans[k].StartUs+spans[k].DurUs, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var covered, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			curB = max(curB, v.b)
		default:
			covered += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		covered += curB - curA
	}
	return spans[i].DurUs - covered
}

// perTraceMs is a span name's summed self time per folded timeline, in ms.
func (l *ledger) perTraceMs(name string) float64 {
	if l.traces == 0 {
		return 0
	}
	return float64(l.selfUs[name]) / 1000 / float64(l.traces)
}
