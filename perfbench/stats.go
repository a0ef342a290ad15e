package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a timing's tail is reported at, from
// the highest down. A timing is reported at the highest one that still
// has at least minBeyond samples above it, so a tail figure never rests
// on a handful of outliers.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// dist is one sample distribution: per-pass wall times, per-cell times
// or per-slice times.
type dist []float64

// sorted returns a sorted copy.
func (d dist) sorted() []float64 {
	s := append([]float64(nil), d...)
	sort.Float64s(s)
	return s
}

// quantile is the p-th percentile by linear interpolation between closest
// ranks (the definition numpy and Python's statistics "inclusive" method
// use); NaN for an empty distribution.
func (d dist) quantile(p float64) float64 {
	s := d.sorted()
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func (d dist) median() float64 { return d.quantile(50) }

func (d dist) sum() float64 {
	t := 0.0
	for _, v := range d {
		t += v
	}
	return t
}

// spread is the interquartile range as a share of the median.
func (d dist) spread() float64 {
	m := d.median()
	if m == 0 {
		return 0
	}
	return (d.quantile(75) - d.quantile(25)) / m
}

// beyond counts the samples a percentile leaves above it.
func beyond(p float64, n int) int {
	return int(math.Floor((1 - p/100) * float64(n) * (1 + 1e-12)))
}

// tailPercentile is the highest percentile of tailLadder with at least
// minBeyond of n samples beyond it; ok is false when even the median
// has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		if beyond(p, n) >= minBeyond {
			return p, true
		}
	}
	return 0, false
}

// describe renders a distribution the way every timing is reported:
// median, the highest percentile with minBeyond samples beyond it, the
// interquartile spread and the sample count.
func (d dist) describe(unit string) string {
	tail := "no percentile has 10 samples beyond it"
	if p, ok := tailPercentile(len(d)); ok {
		tail = fmt.Sprintf("p%g=%.4g %s", p, d.quantile(p), unit)
	}
	return fmt.Sprintf("median=%.4g %s  %s  spread=%.1f%%  n=%d",
		d.median(), unit, tail, 100*d.spread(), len(d))
}
