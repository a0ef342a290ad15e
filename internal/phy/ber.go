package phy

import (
	"fmt"
	"math"
)

// ImplementationLoss shifts the analytic DSSS curve to where real CC2420
// receivers sit: measurement studies of 802.15.4 capture place the
// decodable/undecodable cliff around +2…+4 dB SINR rather than the ~-1 dB
// the ideal coherent formula predicts. The shift also realises the paper's
// co-channel observation: two equal-power co-channel packets (SINR ≈ 0 dB)
// cannot both be decoded.
const ImplementationLoss = 3.5

// BitErrorRate returns the bit-error probability of the 802.15.4 2.4 GHz
// O-QPSK DSSS PHY at a given SINR in dB. It is the standard analytic form
// for 16-ary quasi-orthogonal signalling used throughout the WSN
// literature:
//
//	BER(γ) = (8/15)·(1/16)·Σ_{k=2}^{16} (-1)^k · C(16,k) · exp(20·γ·(1/k − 1))
//
// with γ the linear SINR, evaluated ImplementationLoss dB below the input.
// The curve has the characteristic DSSS cliff: a few dB separate
// near-perfect reception from total loss.
func BitErrorRate(sinrDB float64) float64 {
	gamma := math.Pow(10, (sinrDB-ImplementationLoss)/10)
	sum := 0.0
	sign := 1.0 // (-1)^k for k=2 is +1
	for k := 2; k <= 16; k++ {
		sum += sign * binomial16[k] * math.Exp(20*gamma*(1/float64(k)-1))
		sign = -sign
	}
	ber := (8.0 / 15.0) * (1.0 / 16.0) * sum
	if ber < 0 {
		return 0
	}
	if ber > 0.5 {
		return 0.5
	}
	return ber
}

// binomial16[k] = C(16, k).
var binomial16 = [17]float64{
	1, 16, 120, 560, 1820, 4368, 8008, 11440,
	12870, 11440, 8008, 4368, 1820, 560, 120, 16, 1,
}

// PacketErrorRate returns the probability that at least one of bits bits is
// corrupted at the given SINR, assuming independent bit errors.
func PacketErrorRate(sinrDB float64, bits int) float64 {
	if bits <= 0 {
		return 0
	}
	ber := BitErrorRate(sinrDB)
	if ber <= 0 {
		return 0
	}
	return 1 - math.Pow(1-ber, float64(bits))
}

// CliffSINR is the approximate SINR in dB at which a typical data frame
// (on the order of 500–1000 bits) transitions from mostly-lost to
// mostly-received. Exposed for tests and documentation; the simulator
// never uses it to decide a reception. Reception skips the full curve only
// where ZeroBERCut or BERUpperBound prove the outcome it would give.
const CliffSINR = 2.5

// ZeroBERCut is the SINR, in dB, from which BitErrorRate is exactly 0: it
// is 0 at every SINR ≥ ZeroBERCut and positive one ULP below
// (22.222339252967625 dB on linux/amd64). Above the cut every term of the
// series underflows math.Exp, the k = 2 term exp(−10γ) last, and
// RNG.Binomial(n, 0) returns without drawing, so reception can skip both
// calls and leave the bit errors and the random stream as they were.
//
// The cut is derived at init from ImplementationLoss and Exp's underflow
// bound, ln 2^−1075 (half the smallest subnormal), moved onto the float
// boundary by bisection, and checked over a window on both sides. A math
// library that breaks the property panics at init instead of skipping a
// live BER.
var ZeroBERCut = zeroBERCut()

// cutCheckULPs is the width, in ULPs on each side, of ZeroBERCut's check.
const cutCheckULPs = 256

func zeroBERCut() float64 {
	est := ImplementationLoss + 10*math.Log10(1075*math.Ln2/10)
	lo, hi := est, est
	for w := 1e-12; BitErrorRate(lo) == 0 || BitErrorRate(hi) != 0; w *= 2 {
		lo, hi = est-w, est+w
	}
	for {
		mid := math.Float64frombits((math.Float64bits(lo) + math.Float64bits(hi)) / 2)
		if mid == lo || mid == hi {
			break
		}
		if BitErrorRate(mid) > 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	// A live BER above the cut would be skipped; a zero BER below it would
	// make the bracket draw where Binomial does not.
	below, above := lo, hi
	for i := 0; i < cutCheckULPs; i++ {
		if BitErrorRate(below) == 0 || BitErrorRate(above) != 0 {
			panic(fmt.Sprintf("phy: BitErrorRate is not exactly 0 from %v dB up", hi))
		}
		below, above = math.Nextafter(below, math.Inf(-1)), math.Nextafter(above, math.Inf(1))
	}
	return hi
}

// quietMarginDB is the SINR QuietInterference keeps in hand above the cut.
// SINR's own rounding error, from two Pows, an addition and a Log10, is
// below 1e-13 dB; the margin dwarfs it.
const quietMarginDB = 1e-6

// quietHeadroomDB is how far a signal must sit above QuietInterference's
// bound: the cut, 10·log10 2 for the noise floor's share, and the margin.
var quietHeadroomDB = DBm(ZeroBERCut + 10*math.Log10(2) + quietMarginDB)

// QuietInterference returns the interference level, in dBm, at or below
// which a reception of signal cannot take a bit error:
// SINR(signal, interference) ≥ ZeroBERCut there, so the closed form is 0
// and Binomial draws nothing. A receiver that compares each segment's
// interference with this bound skips SINR as well. It returns −Inf when
// even a silent channel cannot give the guarantee.
//
// The bound is q = signal − ZeroBERCut − 10·log10 2 − quietMarginDB, and it
// holds while q is at or above the noise floor: interference and noise,
// each at most q, sum to at most 2q, which leaves the SINR at least
// ZeroBERCut + quietMarginDB. The q ≥ NoiseFloor test is the check; init
// evaluates SINR at the tightest corner, interference = q = NoiseFloor.
func QuietInterference(signal DBm) DBm {
	q := signal - quietHeadroomDB
	if q < NoiseFloor {
		return DBm(math.Inf(-1))
	}
	return q
}

func init() {
	if SINR(NoiseFloor+quietHeadroomDB, NoiseFloor) < ZeroBERCut+quietMarginDB/2 {
		panic("phy: QuietInterference's bound does not clear ZeroBERCut")
	}
}

// The bracket's grid runs in 0.02 dB steps from 0 dB, where BitErrorRate
// is 2.6% and a segment of more than a few bits almost surely takes an
// error, to 12 dB, where it is below 1e-22: from there the last cell's
// bound holds up to ZeroBERCut and still settles a segment of any length.
// On the cliff a step loosens the bound by at most 7%.
const (
	bracketMinDB  = 0
	bracketMaxDB  = 12
	bracketStepDB = 0.02
)

// berRoundingBound overstates, by orders of magnitude, BitErrorRate's
// rounding error as a share of berTermSum, the sum of its terms'
// magnitudes. Each of the 15 Exps is within 1 ULP, and its argument,
// |20γ(1/k−1)| < 1500 below the cut, carries a few ULPs of relative error,
// so each term is within 1500·2^−51 ≈ 7e−13 of exact.
const berRoundingBound = 1e-9

// berBracket is BERUpperBound's table: for grid cell i, which runs from
// grid point i to the next (the last on to ZeroBERCut), an upper bound hi
// on BitErrorRate over the cell, with its Log1p(−hi).
type berBracket struct {
	berGrid
	cells []bracketCell
}

type bracketCell struct{ hi, log1pNegHi float64 }

var bracket = newBERBracket()

func newBERBracket() berBracket {
	g, err := newBERGrid(bracketMinDB, bracketMaxDB, bracketStepDB)
	if err != nil {
		panic(err)
	}
	b := berBracket{berGrid: g, cells: make([]bracketCell, len(g.ber))}
	for i, ber := range g.ber {
		s := g.grid(i)
		// Within the cell, the computed BER is at most the exact series
		// plus its rounding error, hence at most the exact series at s
		// (the series falls with SINR) plus that error, hence at most ber
		// plus twice the error (the term magnitudes fall too). hi thus
		// exceeds every BER of the cell by a relative 1e-9 or more, far
		// beyond the 1-ULP error of Log1p, so Log1p cannot reorder them.
		hi := ber + 2*berRoundingBound*berTermSum(s)
		b.cells[i] = bracketCell{hi: hi, log1pNegHi: math.Log1p(-hi)}
		monotone := i == 0 || ber <= g.ber[i-1]
		if !(ber > 0 && hi < 1 && monotone && BitErrorRate(math.Nextafter(s, math.Inf(1))) <= hi) {
			panic(fmt.Sprintf("phy: BER bracket fails its check at %v dB", s))
		}
	}
	return b
}

// berTermSum is BitErrorRate's series with every term taken positive: the
// scale of its rounding error.
func berTermSum(sinrDB float64) float64 {
	gamma := math.Pow(10, (sinrDB-ImplementationLoss)/10)
	sum := 0.0
	for k := 2; k <= 16; k++ {
		sum += binomial16[k] * math.Exp(20*gamma*(1/float64(k)-1))
	}
	return (8.0 / 15.0) * (1.0 / 16.0) * sum
}

// BERUpperBound returns hi ≥ BitErrorRate(sinrDB), certified for every
// float SINR in [0 dB, ZeroBERCut), together with math.Log1p(−hi); ok is
// false outside that range, NaN included. Reception uses it to settle "no
// bit error" from Binomial's own first draws without the closed form: a
// uniform u ≥ hi is not an error at any BER ≤ hi, and Binomial's geometric
// skip, floor(log u / Log1p(−BER)), only grows as the BER shrinks.
func BERUpperBound(sinrDB float64) (hi, log1pNegHi float64, ok bool) {
	if !(sinrDB >= bracket.minDB && sinrDB < ZeroBERCut) {
		return 0, 0, false
	}
	i := int((sinrDB - bracket.minDB) / bracket.stepDB)
	if i >= len(bracket.cells) {
		i = len(bracket.cells) - 1
	}
	if sinrDB < bracket.grid(i) {
		i-- // the division rounded up onto the next grid point
	}
	c := bracket.cells[i]
	return c.hi, c.log1pNegHi, true
}
