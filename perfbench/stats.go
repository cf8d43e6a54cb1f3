package main

import (
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value, interpolating between the two middle
// values of an even-sized sample. Zero for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailMinBeyond is the number of samples that must lie beyond the value
// reported as the tail.
const tailMinBeyond = 10

// tail returns the highest percentile that has at least tailMinBeyond
// samples beyond it, with that percentile. Under the nearest-rank rule
// the k-th smallest of n samples is the 100·k/n-th percentile and has
// n−k samples beyond it, so the tail is the (n−10)-th smallest value at
// percentile 100·(n−10)/n. Below 20 samples that rank falls under the
// median, and the median is reported as the tail (percentile 50).
func tail(xs []float64) (value, percentile float64) {
	n := len(xs)
	if n < 2*tailMinBeyond {
		return median(xs), 50
	}
	s := sortedCopy(xs)
	k := n - tailMinBeyond
	return s[k-1], 100 * float64(k) / float64(n)
}

// quartiles matches Python's statistics.quantiles(xs, n=4) in its
// default exclusive method, including its extrapolation on tiny samples:
// cut i sits at position (n+1)·i/4 of the sorted sample.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}
