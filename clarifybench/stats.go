package main

import (
	"math"
	"sort"
	"time"
)

// msOf converts durations to sorted milliseconds.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// quantile interpolates the q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailQuantile returns the highest of p99.9, p99, p95, p90 and p50 that has
// at least ten samples beyond it, and that quantile.
func tailQuantile(sorted []float64) (q, v float64) {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.90, 0.5} {
		if float64(len(sorted))*(1-q) >= 10 {
			return q, quantile(sorted, q)
		}
	}
	return 0.5, quantile(sorted, 0.5)
}

// drift compares the median latency of the last quarter of a run (by due
// time) with that of the first quarter. A ratio well above 1 means cost
// grows with run length, e.g. because sessions age without bound.
func drift(samples []sample) float64 {
	ok := make([]sample, 0, len(samples))
	for _, s := range samples {
		if s.Err == "" {
			ok = append(ok, s)
		}
	}
	if len(ok) < 8 {
		return 1
	}
	sort.Slice(ok, func(i, j int) bool { return ok[i].Due.Before(ok[j].Due) })
	q := len(ok) / 4
	lat := func(ss []sample) []float64 {
		out := make([]float64, len(ss))
		for i, s := range ss {
			out[i] = float64(s.Lat)
		}
		return out
	}
	return median(lat(ok[len(ok)-q:])) / median(lat(ok[:q]))
}

// driftLimit flags a run whose last-quarter median exceeds the first
// quarter's by more than half.
const driftLimit = 1.5
