package main

import (
	"math"
	"strings"
	"testing"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 6, ok: false},
		{n: 19, ok: false},
		{n: 20, want: 50, ok: true},
		{n: 39, want: 50, ok: true},
		{n: 40, want: 75, ok: true},
		{n: 99, want: 75, ok: true},
		{n: 100, want: 90, ok: true},
		{n: 120, want: 90, ok: true},
		{n: 200, want: 95, ok: true},
		{n: 1000, want: 99, ok: true},
		{n: 10000, want: 99.9, ok: true},
	} {
		got, ok := tailPercentile(tc.n)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailPercentile(%d) = %g, %t; want %g, %t", tc.n, got, ok, tc.want, tc.ok)
		}
		if ok && beyond(got, tc.n) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", tc.n, got, beyond(got, tc.n))
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	d := dist{5, 1, 4, 2, 3} // unsorted on purpose
	for p, want := range map[float64]float64{0: 1, 25: 2, 50: 3, 90: 4.6, 100: 5} {
		if got := d.quantile(p); math.Abs(got-want) > 1e-12 {
			t.Errorf("quantile(%g) = %g, want %g", p, got, want)
		}
	}
	if got := (dist{1, 2, 3, 4}).median(); got != 2.5 {
		t.Errorf("even-length median = %g, want 2.5", got)
	}
	if got := (dist{2, 4, 6, 8, 10}).spread(); got != 4.0/6 {
		t.Errorf("spread = %g, want %g", got, 4.0/6)
	}
	if !math.IsNaN(dist{}.quantile(50)) {
		t.Error("empty distribution must have no quantile")
	}
	if d[0] != 5 {
		t.Error("quantile must not reorder the samples")
	}
}

func TestDescribeStatesSampleCountAndTail(t *testing.T) {
	var d dist
	for i := 1; i <= 100; i++ {
		d = append(d, float64(i))
	}
	got := d.describe("ms")
	for _, want := range []string{"median=50.5 ms", "p90=", "n=100"} {
		if !strings.Contains(got, want) {
			t.Errorf("describe = %q, missing %q", got, want)
		}
	}
	if got := (dist{1, 2, 3}).describe("s"); !strings.Contains(got, "no percentile") || !strings.Contains(got, "n=3") {
		t.Errorf("short describe = %q", got)
	}
}
