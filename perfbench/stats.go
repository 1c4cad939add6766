package main

import (
	"math"
	"sort"
)

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// median returns the median of xs (0 for an empty slice). xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs that still has at least
// tailSamples samples strictly beyond it, as (value, percentile). With N
// samples that is the (N−10)-th smallest value, the 100·(N−10)/N-th
// percentile. Fewer than tailSamples+1 samples support no such percentile;
// tail then returns the minimum at percentile 0.
func tail(xs []float64) (float64, float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sorted(xs)
	i := n - tailSamples - 1
	if i < 0 {
		return s[0], 0
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

// share divides a count by the number of ops attempted — never by the
// number completed, so failures and refusals cannot shrink the base.
func share(count, attempted int) float64 {
	if attempted <= 0 {
		return 0
	}
	return float64(count) / float64(attempted)
}

// histQuantile estimates quantile q of a cumulative histogram given as
// (upper bound, cumulative count) pairs in increasing bound order, the last
// bound being +Inf. It returns the upper bound of the bucket holding the
// quantile, so the estimate never understates; a quantile in the +Inf
// bucket returns the largest finite bound. An empty histogram returns 0.
func histQuantile(bounds []float64, cum []int64, q float64) float64 {
	if len(cum) == 0 || cum[len(cum)-1] == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(cum[len(cum)-1])))
	if rank < 1 {
		rank = 1
	}
	for i, c := range cum {
		if c >= rank {
			if math.IsInf(bounds[i], 1) && i > 0 {
				return bounds[i-1]
			}
			return bounds[i]
		}
	}
	return bounds[len(bounds)-1]
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
