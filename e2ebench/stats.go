package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is the number of samples that must lie strictly beyond a
// reported tail percentile; fewer and the percentile is one or two
// samples' worth of noise.
const minTail = 10

// beyond returns how many of n sorted samples lie strictly above the
// nearest-rank p-quantile (p in (0,1)).
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p*float64(n)))
}

// tailOK reports whether n samples support a p-quantile under the
// at-least-minTail-beyond rule.
func tailOK(n int, p float64) bool { return n > 0 && beyond(n, p) >= minTail }

// minSamplesFor is the smallest sample count whose p-quantile has minTail
// samples beyond it.
func minSamplesFor(p float64) int {
	n := 1
	for !tailOK(n, p) {
		n++
	}
	return n
}

// percentile returns the nearest-rank p-quantile of xs (p in (0,1]). xs
// need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

// median is the interpolated median (the mean of the two middle samples
// for an even count), as Python's statistics.median.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile with the "exclusive"
// method of Python's statistics.quantiles(xs, n=4), the rule the
// benchmark's spread bound is judged by.
func quartiles(xs []float64) (q1, q3 float64, err error) {
	ld := len(xs)
	if ld < 2 {
		return 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", ld)
	}
	s := sorted(xs)
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3), nil
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) (float64, error) {
	q1, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	return (q3 - q1) / median(xs), nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
