package main

import (
	"math"
	"slices"
)

// metric is one reported number. n is the sample count behind it: the
// timed calls for a latency, the operations for a rate or ratio.
type metric struct {
	name  string
	value float64
	unit  string
	n     int
}

// percentile returns the q-quantile (0 < q <= 1) of sorted samples by
// the nearest-rank rule, in the samples' unit.
func percentile(sorted []uint32, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return float64(sorted[max(i, 0)])
}

// median returns the median of xs (NaN if empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sliceQuantiles returns each slice's q-quantile in microseconds.
// samples[s] holds slice s's timed calls in nanoseconds; a slice with
// fewer than minSamples is skipped, so each quantile has at least ten
// samples beyond it. It also returns the total sample count.
func sliceQuantiles(samples [][]uint32, q float64) (us []float64, n int) {
	minSamples := int(math.Ceil(10 / (1 - q)))
	for _, s := range samples {
		n += len(s)
		if len(s) < minSamples {
			continue
		}
		slices.Sort(s)
		us = append(us, percentile(s, q)/1e3)
	}
	return us, n
}

// ratio returns num/den, or 0 when den is 0 (a layer the workload does
// not exercise).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// intervalMeanNs is the mean length of the intervals that start inside
// [from, to), with their count.
func intervalMeanNs(iv []interval, from, to int64) (float64, int) {
	var sum float64
	n := 0
	for _, x := range iv {
		if x.start >= from && x.start < to && x.end >= x.start {
			sum += float64(x.end - x.start)
			n++
		}
	}
	return ratio(sum, float64(n)), n
}
