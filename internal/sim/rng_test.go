package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBernoulliExtremes(t *testing.T) {
	g := NewRNG(1)
	for i := 0; i < 100; i++ {
		if g.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !g.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
		if g.Bernoulli(-0.5) {
			t.Fatal("Bernoulli(p<0) returned true")
		}
		if !g.Bernoulli(1.5) {
			t.Fatal("Bernoulli(p>1) returned false")
		}
	}
}

func TestBernoulliFrequency(t *testing.T) {
	g := NewRNG(7)
	const n = 200000
	c := 0
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			c++
		}
	}
	got := float64(c) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v", got)
	}
}

func TestUniformRangeBounds(t *testing.T) {
	g := NewRNG(3)
	f := func(a, b float64) bool {
		// Constrain to the dBm-scale magnitudes the simulator uses;
		// astronomically large ranges overflow hi-lo and are out of scope.
		lo := math.Mod(a, 1e6)
		hi := math.Mod(b, 1e6)
		if math.IsNaN(lo) || math.IsNaN(hi) {
			return true
		}
		if lo > hi {
			lo, hi = hi, lo
		}
		v := g.UniformRange(lo, hi)
		return v >= lo && (v < hi || lo == hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialBounds(t *testing.T) {
	g := NewRNG(5)
	f := func(n int, p float64) bool {
		if n < 0 {
			n = -n
		}
		n %= 5000
		p = math.Mod(math.Abs(p), 1)
		c := g.Binomial(n, p)
		return c >= 0 && c <= n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBinomialMeanSmallAndLargeN(t *testing.T) {
	g := NewRNG(11)
	for _, n := range []int{32, 1000} { // exercises both code paths
		const trials = 20000
		p := 0.01
		sum := 0
		for i := 0; i < trials; i++ {
			sum += g.Binomial(n, p)
		}
		mean := float64(sum) / trials
		want := float64(n) * p
		if math.Abs(mean-want) > 0.15*want+0.02 {
			t.Errorf("Binomial(%d, %v) mean = %v, want ~%v", n, p, mean, want)
		}
	}
}

func TestBinomialDegenerate(t *testing.T) {
	g := NewRNG(2)
	if got := g.Binomial(0, 0.5); got != 0 {
		t.Errorf("Binomial(0, .5) = %d", got)
	}
	if got := g.Binomial(100, 0); got != 0 {
		t.Errorf("Binomial(100, 0) = %d", got)
	}
	if got := g.Binomial(100, 1); got != 100 {
		t.Errorf("Binomial(100, 1) = %d", got)
	}
}

// binomialReference is Binomial as one function, before it was split at
// the first draw: the oracle that pins the split to the same counts and
// the same draws.
func binomialReference(g *RNG, n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= 64 {
		c := 0
		for i := 0; i < n; i++ {
			if g.Float64() < p {
				c++
			}
		}
		return c
	}
	c, i := 0, 0
	logq := math.Log1p(-p)
	for {
		skipF := math.Floor(math.Log(g.Float64()) / logq)
		if skipF >= float64(n-i) {
			return c
		}
		i += int(skipF) + 1
		if i > n {
			return c
		}
		c++
	}
}

// TestBinomialFromContinuesBinomial: Binomial, and a caller that draws the
// first uniform itself and hands it to BinomialFrom, both give the
// reference count and leave the stream at the reference position, on
// both sides of the 64-trial switch and across p.
func TestBinomialFromContinuesBinomial(t *testing.T) {
	ps := []float64{-1, 0, 1e-300, 1e-9, 1e-4, 0.01, 0.3, 0.5, 0.99, 1, 2}
	for seed := int64(0); seed < 50; seed++ {
		for _, n := range []int{0, 1, 2, 63, 64, 65, 100, 1016} {
			for _, p := range ps {
				ref, whole, split := NewRNG(seed), NewRNG(seed), NewRNG(seed)
				want := binomialReference(ref, n, p)
				if got := whole.Binomial(n, p); got != want {
					t.Fatalf("seed %d: Binomial(%d, %v) = %d, reference %d", seed, n, p, got, want)
				}
				got := 0
				if n > 0 && p > 0 && p < 1 {
					got = split.BinomialFrom(split.Float64(), n, p)
				} else {
					got = split.Binomial(n, p)
				}
				if got != want {
					t.Fatalf("seed %d: BinomialFrom(u, %d, %v) = %d, reference %d", seed, n, p, got, want)
				}
				next := ref.Int63()
				if whole.Int63() != next || split.Int63() != next {
					t.Fatalf("seed %d: n=%d p=%v: stream position differs from the reference", seed, n, p)
				}
			}
		}
	}
}

func TestGaussianMoments(t *testing.T) {
	g := NewRNG(13)
	const n = 100000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := g.Gaussian(5, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-5) > 0.05 {
		t.Errorf("mean = %v, want ~5", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.05 {
		t.Errorf("stddev = %v, want ~2", math.Sqrt(variance))
	}
}

func TestTicker(t *testing.T) {
	k := NewKernel(1)
	n := 0
	tk := k.NewTicker(10*Millisecond.Duration(), func() { n++ })
	k.RunUntil(55 * Millisecond)
	if n != 5 {
		t.Errorf("ticks = %d, want 5", n)
	}
	tk.Stop()
	k.RunUntil(200 * Millisecond)
	if n != 5 {
		t.Errorf("ticks after Stop = %d, want 5", n)
	}
	tk.Stop() // idempotent
}

func TestTickerStopFromCallback(t *testing.T) {
	k := NewKernel(1)
	n := 0
	var tk *Ticker
	tk = k.NewTicker(Millisecond.Duration(), func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	k.RunUntil(Second)
	if n != 3 {
		t.Errorf("ticks = %d, want 3", n)
	}
}

func TestTickerZeroPeriodPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero period did not panic")
		}
	}()
	k := NewKernel(1)
	k.NewTicker(0, func() {})
}
