package main

import (
	"errors"
	"fmt"
	"math/big"
	"time"

	"ccsched"
)

// checkResult is the output check every answered op passes through,
// outside the timed region: each schedule the result carries must be a
// valid schedule of in (the public Validate methods), one of them must
// achieve the reported makespan, and the certified lower bound must not
// exceed it. It returns Makespan/LowerBound and the time Validate took.
func checkResult(in *ccsched.Instance, v ccsched.Variant, res *ccsched.Result) (float64, time.Duration, error) {
	if res == nil || res.Makespan == nil || res.LowerBound == nil {
		return 0, 0, errors.New("result without makespan or lower bound")
	}
	if res.Variant != v {
		return 0, 0, fmt.Errorf("result variant %v, want %v", res.Variant, v)
	}
	if res.LowerBound.Sign() <= 0 || res.LowerBound.Cmp(res.Makespan) > 0 {
		return 0, 0, fmt.Errorf("lower bound %v not in (0, makespan %v]", res.LowerBound, res.Makespan)
	}
	start := time.Now()
	var spans []*big.Rat
	var err error
	switch v {
	case ccsched.Splittable:
		if res.Split == nil && res.CompactSplit == nil {
			return 0, 0, errors.New("splittable result without a schedule")
		}
		if res.Split != nil {
			if err = res.Split.Validate(in); err == nil {
				spans = append(spans, res.Split.Makespan())
			}
		}
		if err == nil && res.CompactSplit != nil {
			if err = res.CompactSplit.Validate(in); err == nil {
				spans = append(spans, res.CompactSplit.Makespan())
			}
		}
	case ccsched.Preemptive:
		if res.Preemptive == nil {
			return 0, 0, errors.New("preemptive result without a schedule")
		}
		if err = res.Preemptive.Validate(in); err == nil {
			spans = append(spans, res.Preemptive.Makespan())
		}
	case ccsched.NonPreemptive:
		if res.NonPreemptive == nil {
			return 0, 0, errors.New("non-preemptive result without a schedule")
		}
		if err = res.NonPreemptive.Validate(in); err == nil {
			spans = append(spans, new(big.Rat).SetInt64(res.NonPreemptive.Makespan(in)))
		}
	}
	took := time.Since(start)
	if err != nil {
		return 0, took, fmt.Errorf("invalid schedule: %w", err)
	}
	achieved := false
	for _, s := range spans {
		if s.Cmp(res.Makespan) > 0 {
			return 0, took, fmt.Errorf("schedule makespan %v exceeds reported %v", s, res.Makespan)
		}
		achieved = achieved || s.Cmp(res.Makespan) == 0
	}
	if !achieved {
		return 0, took, fmt.Errorf("no schedule achieves the reported makespan %v", res.Makespan)
	}
	q, _ := new(big.Rat).Quo(res.Makespan, res.LowerBound).Float64()
	return q, took, nil
}
