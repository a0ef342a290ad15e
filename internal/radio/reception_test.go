package radio

import (
	"fmt"
	"math"
	"testing"
	"time"

	"nonortho/internal/frame"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// TestFastReceptionMatchesExactOracle checks every reception segment of a
// randomised churn run against the closed form: co- and adjacent-channel
// interferers, capture, retunes and power-offs mid-reception, with
// payloads that put segments on both sides of Binomial's 64-bit switch.
// Each radio's bit stream has a twin, seeded alike from a second kernel;
// per segment the twin draws the exact Binomial(bits, BitErrorRate(SINR)),
// which must equal the radio's count, and then both streams draw once
// more, which must agree, so both took the same number of draws.
func TestFastReceptionMatchesExactOracle(t *testing.T) {
	channels := []phy.MHz{2458, 2459, 2461, 2463, 2466}
	for _, seed := range []int64{1, 2, 3} {
		k := sim.NewKernel(seed)
		m := medium.New(k,
			medium.WithFadingSigma(2),
			medium.WithStaticFadingSigma(3),
			medium.WithPathLoss(&phy.LogDistance{ReferenceLoss: 40, Exponent: 3, MinDistance: 0.1}))
		twins := sim.NewKernel(seed)
		churn := sim.NewRNG(seed)

		var paths [numSegmentPaths]int
		var short, long int // bracket or exact segments of ≤ 64 and > 64 bits
		const nodes = 10
		radios := make([]*Radio, nodes)
		for i := range radios {
			r := New(k, m, Config{
				Pos:           phy.Position{X: churn.UniformRange(0, 30), Y: churn.UniformRange(0, 30)},
				Freq:          channels[churn.Intn(len(channels))],
				TxPower:       phy.DBm(churn.UniformRange(-25, 0)),
				Address:       2 + frame.Address(i),
				CaptureMargin: phy.DBm(3 * (i % 2)),
			})
			twin := twins.Stream(fmt.Sprintf("radio.%d.bits", r.Address()))
			r.onSegment = func(bits int, interf phy.DBm, errs int) {
				sinr := phy.SINR(r.rx.signal, interf)
				want := twin.Binomial(bits, phy.BitErrorRate(sinr))
				if errs != want {
					t.Fatalf("seed %d radio %d: %d bits at %v dB SINR: %d errors, exact %d", seed, i, bits, sinr, errs, want)
				}
				if got, want := r.rng.Int63(), twin.Int63(); got != want {
					t.Fatalf("seed %d radio %d: %d bits at %v dB SINR: stream position differs from the exact draw's", seed, i, bits, sinr)
				}
				if interf > r.rx.quiet && sinr < phy.ZeroBERCut {
					if bits <= sim.BinomialDirectMax {
						short++
					} else {
						long++
					}
				}
			}
			radios[i] = r
		}
		for i, r := range radios {
			var act func()
			act = func() {
				switch x := churn.Float64(); {
				case x < 0.7:
					payload := churn.Intn(100)
					if churn.Bernoulli(0.3) {
						payload = churn.Intn(4) // about 100-bit frames: short segments
					}
					_, _ = r.Transmit(dataFrame(payload, r.Address(), 2+frame.Address((i+1)%nodes)))
				case x < 0.8:
					r.SetFreq(channels[churn.Intn(len(channels))])
				case x < 0.85:
					r.SetOff()
				default:
					r.SetOn()
				}
				k.After(time.Duration(churn.Exponential(float64(3*time.Millisecond))), act)
			}
			k.After(time.Duration(churn.Exponential(float64(time.Millisecond))), act)
		}
		k.RunFor(5 * time.Second)
		for _, r := range radios {
			for p, c := range r.segments {
				paths[p] += c
			}
		}
		t.Logf("seed %d: segments by path (quiet, zero cut, bracket, exact) %v; bracket/exact segments ≤64 bits %d, >64 bits %d", seed, paths, short, long)
		for p, c := range paths {
			if c == 0 {
				t.Errorf("seed %d: no segment took path %d; the churn no longer covers it", seed, p)
			}
		}
		if short == 0 || long == 0 {
			t.Errorf("seed %d: bracket/exact segments ≤64 bits %d, >64 bits %d; want both sides of 64", seed, short, long)
		}
	}
}

// FuzzReceptionDecision: segmentErrors must return exactly the exact
// Binomial(n, BitErrorRate(sinr)) count and leave the stream where that
// call leaves it.
func FuzzReceptionDecision(f *testing.F) {
	cut := phy.ZeroBERCut
	for _, s := range []float64{cut, math.Nextafter(cut, 0), math.Nextafter(cut, 100), 0, 3, 4.5, 6, 12} {
		for _, n := range []int{1, 64, 65, 1016} {
			f.Add(s, n, int64(n))
		}
	}
	f.Fuzz(func(t *testing.T, sinr float64, n int, seed int64) {
		if n <= 0 || n > 1<<14 {
			t.Skip()
		}
		fast, exact := sim.NewRNG(seed), sim.NewRNG(seed)
		got, _ := segmentErrors(fast, n, sinr)
		want := exact.Binomial(n, phy.BitErrorRate(sinr))
		if got != want {
			t.Fatalf("segmentErrors(%d bits, %v dB) = %d, exact Binomial %d", n, sinr, got, want)
		}
		if fast.Int63() != exact.Int63() {
			t.Fatalf("segmentErrors(%d bits, %v dB) left the stream elsewhere than the exact Binomial", n, sinr)
		}
	})
}

// TestSegmentErrorsAtTheSkipBoundary aims at the geometric path's edge:
// streams whose first Binomial skip lands exactly on n−1 (one error, on
// the last bit) or n (no error), where a bracket decision off by one bit
// would go wrong. Random segments hit these streams about once per 1/BER.
func TestSegmentErrorsAtTheSkipBoundary(t *testing.T) {
	for _, c := range []struct {
		sinr float64
		n    int
	}{{1, 65}, {1, 200}, {2.5, 400}, {3, 1016}} {
		p := phy.BitErrorRate(c.sinr)
		found := map[float64]int{}
		for seed := int64(0); seed < 100000 && (found[float64(c.n-1)] < 3 || found[float64(c.n)] < 3); seed++ {
			skip := math.Floor(math.Log(sim.NewRNG(seed).Float64()) / math.Log1p(-p))
			if skip != float64(c.n-1) && skip != float64(c.n) {
				continue
			}
			found[skip]++
			fast, exact := sim.NewRNG(seed), sim.NewRNG(seed)
			got, _ := segmentErrors(fast, c.n, c.sinr)
			if want := exact.Binomial(c.n, p); got != want || fast.Int63() != exact.Int63() {
				t.Fatalf("seed %d, first skip %v: segmentErrors(%d bits, %v dB) = %d, exact %d (or the streams part)", seed, skip, c.n, c.sinr, got, want)
			}
		}
		if found[float64(c.n-1)] == 0 || found[float64(c.n)] == 0 {
			t.Errorf("%d bits at %v dB: boundary streams found %v; want skips of both n−1 and n", c.n, c.sinr, found)
		}
	}
}
