package main

import (
	"math"
	"sort"
	"time"
)

// median returns the median of xs (the mean of the middle pair for an
// even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-quantile (0 < p ≤ 1) of xs by the
// nearest-rank rule: the smallest sample with at least p of the samples
// at or below it. It never interpolates, so a p99 over fewer than 100
// samples is the maximum.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// quartiles returns the first and third quartile of xs, computed the way
// Python's statistics.quantiles(xs, n=4) does (the "exclusive" method),
// so spreads printed here match ones computed from the result lines in Python.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// relIQR is the interquartile range of xs as a share of its median.
func relIQR(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// durations converts to seconds.
func durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// sample is one timed operation: when it completed, measured from the
// start of the window, and how long it took.
type sample struct {
	at, lat time.Duration
}

func byCompletion(s []sample) []sample {
	out := append([]sample(nil), s...)
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

func latencies(s []sample) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = x.lat.Seconds()
	}
	return out
}

// chunkedQuantile splits the samples, in completion order, into
// consecutive chunks of at least minChunk and returns the median over
// chunks of each chunk's nearest-rank p-quantile. A burst of host
// contention then moves the chunks it falls in, not the result; with
// minChunk 1000, each chunk's p99 has ten samples beyond it.
func chunkedQuantile(s []sample, p float64, minChunk int) float64 {
	s = byCompletion(s)
	k := len(s) / minChunk
	if k < 1 {
		k = 1
	}
	per := make([]float64, k)
	for i := range per {
		per[i] = nearestRank(latencies(s[i*len(s)/k:(i+1)*len(s)/k]), p)
	}
	return median(per)
}

// sliceRates returns how many samples completed per second in each
// whole slice of the window.
func sliceRates(s []sample, window, slice time.Duration) []float64 {
	rates := make([]float64, int(window/slice))
	for _, x := range s {
		if i := int(x.at / slice); i < len(rates) {
			rates[i]++
		}
	}
	for i := range rates {
		rates[i] /= slice.Seconds()
	}
	return rates
}
