package phy

import (
	"math"
	"testing"
	"testing/quick"
)

func TestBitErrorRateMonotoneDecreasing(t *testing.T) {
	prev := 1.0
	// The sweep crosses ZeroBERCut, where the curve drops to exactly 0.
	for sinr := -30.0; sinr <= 60; sinr += 0.25 {
		ber := BitErrorRate(sinr)
		if ber > prev+1e-12 {
			t.Fatalf("BER not monotone: BER(%v)=%v > previous %v", sinr, ber, prev)
		}
		prev = ber
	}
}

func TestBitErrorRateBounds(t *testing.T) {
	f := func(s float64) bool {
		ber := BitErrorRate(s)
		return ber >= 0 && ber <= 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitErrorRateCliff(t *testing.T) {
	// The DSSS cliff sits near CliffSINR: material bit errors at the
	// cliff, negligible a few dB above, hopeless a few dB below.
	atCliff := BitErrorRate(CliffSINR)
	if atCliff < 1e-5 || atCliff > 1e-2 {
		t.Errorf("BER(cliff) = %v, want within [1e-5, 1e-2]", atCliff)
	}
	if above := BitErrorRate(CliffSINR + 4); above > 1e-7 {
		t.Errorf("BER(cliff+4 dB) = %v, want < 1e-7", above)
	}
	if below := BitErrorRate(CliffSINR - 4); below < 0.01 {
		t.Errorf("BER(cliff-4 dB) = %v, want > 0.01", below)
	}
	// Equal-power co-channel collision (SINR ≈ 0 dB) must be fatal for a
	// typical frame — the paper's co-channel observation.
	if per := PacketErrorRate(0, 648); per < 0.99 {
		t.Errorf("PER(0 dB, 648 bits) = %v, want ≈ 1", per)
	}
}

func TestPacketErrorRateGrowsWithLength(t *testing.T) {
	short := PacketErrorRate(1, 100)
	long := PacketErrorRate(1, 1000)
	if long <= short {
		t.Errorf("PER(1000 bits) = %v not > PER(100 bits) = %v", long, short)
	}
}

func TestPacketErrorRateBounds(t *testing.T) {
	f := func(s float64, bits int) bool {
		if bits < 0 {
			bits = -bits
		}
		bits %= 10000
		per := PacketErrorRate(s, bits)
		return per >= 0 && per <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPacketErrorRateZeroBits(t *testing.T) {
	if got := PacketErrorRate(-20, 0); got != 0 {
		t.Errorf("PER(0 bits) = %v, want 0", got)
	}
}

func TestPacketErrorRateHighSINRIsClean(t *testing.T) {
	if got := PacketErrorRate(20, 8*127); got > 1e-9 {
		t.Errorf("PER(20 dB, max frame) = %v, want ~0", got)
	}
}

// TestBitErrorRateZeroFromCut: BitErrorRate is exactly 0 from ZeroBERCut
// to 200 dB, and positive one ULP below the cut, the two facts reception
// relies on to skip the closed form and Binomial's draws at the cut.
func TestBitErrorRateZeroFromCut(t *testing.T) {
	cut := ZeroBERCut
	if below := BitErrorRate(math.Nextafter(cut, math.Inf(-1))); below <= 0 {
		t.Fatalf("BER one ULP below the cut (%v dB) = %v, want > 0", cut, below)
	}
	for s := cut; s <= 200; s += 1e-3 {
		if ber := BitErrorRate(s); ber != 0 {
			t.Fatalf("BER(%v dB) = %v above the cut %v dB, want exactly 0", s, ber, cut)
		}
	}
	for s, i := cut, 0; i < 1<<16; i++ {
		if ber := BitErrorRate(s); ber != 0 {
			t.Fatalf("BER(%v dB), %d ULPs above the cut, = %v, want exactly 0", s, i, ber)
		}
		s = math.Nextafter(s, math.Inf(1))
	}
	if BitErrorRate(200) != 0 {
		t.Fatal("BER(200 dB) != 0")
	}
}

// TestBERUpperBoundCoversClosedForm sweeps the bracket's whole domain,
// grid points, their neighbouring ULPs and a dense off-grid walk included:
// the bound must never fall below the closed form, must keep its Log1p,
// and must be refused outside [0 dB, ZeroBERCut).
func TestBERUpperBoundCoversClosedForm(t *testing.T) {
	check := func(s float64) {
		hi, l, ok := BERUpperBound(s)
		if !ok {
			t.Fatalf("BERUpperBound(%v dB) refused inside its domain", s)
		}
		if ber := BitErrorRate(s); hi < ber || ber > 0 && math.Log1p(-ber) < l {
			t.Fatalf("BERUpperBound(%v dB) = %v (log1p %v) below BitErrorRate %v", s, hi, l, ber)
		}
		if l != math.Log1p(-hi) {
			t.Fatalf("BERUpperBound(%v dB): log1p %v, want Log1p(-%v) = %v", s, l, hi, math.Log1p(-hi))
		}
	}
	for i := range bracket.cells {
		g := bracket.grid(i)
		check(g)
		check(math.Nextafter(g, math.Inf(1)))
		if i > 0 {
			check(math.Nextafter(g, math.Inf(-1)))
		}
	}
	for s := 0.0; s < ZeroBERCut; s += 1.3e-4 {
		check(s)
	}
	check(math.Nextafter(ZeroBERCut, math.Inf(-1)))
	for _, s := range []float64{ZeroBERCut, 30, math.Nextafter(0, math.Inf(-1)), -5, math.NaN()} {
		if _, _, ok := BERUpperBound(s); ok {
			t.Errorf("BERUpperBound(%v dB) accepted outside [0, ZeroBERCut)", s)
		}
	}
}

// TestBERUpperBoundIsTightOnTheCliff keeps the bracket useful: where it
// settles most segments, its bound must stay within 25% of the curve.
func TestBERUpperBoundIsTightOnTheCliff(t *testing.T) {
	for s := 2.0; s < 10; s += 0.013 {
		hi, _, _ := BERUpperBound(s)
		if ber := BitErrorRate(s); hi > 1.25*ber {
			t.Fatalf("BERUpperBound(%v dB) = %v, more than 25%% above BitErrorRate %v", s, hi, ber)
		}
	}
}

// TestQuietInterferenceClearsTheCut: any interference at or below a
// signal's quiet bound leaves the SINR at or above ZeroBERCut, and only a
// signal within the bound's headroom of the noise floor gets no bound.
func TestQuietInterferenceClearsTheCut(t *testing.T) {
	f := func(a, b float64) bool {
		signal := DBm(-100 + math.Mod(math.Abs(a), 130)) // [-100, 30) dBm
		q := QuietInterference(signal)
		if math.IsInf(float64(q), -1) {
			return signal < NoiseFloor+quietHeadroomDB
		}
		interf := q - DBm(math.Mod(math.Abs(b), 100))
		return SINR(signal, q) >= ZeroBERCut && SINR(signal, interf) >= ZeroBERCut && SINR(signal, Silent) >= ZeroBERCut
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
	corner := NoiseFloor + quietHeadroomDB
	if q := QuietInterference(corner); q != NoiseFloor {
		t.Errorf("QuietInterference(%v) = %v, want the noise floor", corner, q)
	}
	if q := QuietInterference(corner - 1e-9); !math.IsInf(float64(q), -1) {
		t.Errorf("QuietInterference just below the corner = %v, want -Inf", q)
	}
}
