package phy

import (
	"fmt"
	"math"
)

// PERTable is a quantised lookup table over the DSSS BER/PER curves: the
// closed forms evaluated once on a uniform SINR grid, with lookups
// rounding to the nearest grid point. Sweeps that evaluate SINR→BER→PER
// for every (listener, transmission) pair pay a handful of float
// operations per lookup instead of fifteen math.Exp calls.
//
// Construction carries a proof of equivalence: after filling the grid,
// the constructor re-evaluates the closed form at every grid point and
// requires each lookup to return the identical bits, or the table is
// rejected with an error. The proof pins the index round-trip — quantise,
// clamp, fetch — not just the stored values, so a table that builds is
// bit-exact over its whole quantisation domain by checked construction,
// not by convention.
//
// Off the grid, lookups return the nearest grid point's value: an
// approximation whose error depends on the grid pitch against the DSSS
// cliff. Nothing in the simulator installs a table — reception evaluates
// the exact closed form (or proves it unnecessary; see BERUpperBound) —
// and NewPERTableWithBudget exists for callers that opt in and want the
// approximation error bounded at build time rather than audited after the
// fact.
type PERTable struct {
	berGrid
	bits int
	per  []float64
}

// berGrid is BitErrorRate evaluated on the uniform SINR grid minDB +
// i·stepDB, i = 0 … round((maxDB−minDB)/stepDB). It is the grid both
// PERTable and the reception bracket (BERUpperBound) are built on: at every
// grid point ber holds exactly the closed form's bits.
type berGrid struct {
	minDB  float64
	stepDB float64
	ber    []float64
}

// maxPERTablePoints bounds grid construction: a grid this large means the
// caller passed a pitch or span they did not intend.
const maxPERTablePoints = 1 << 22

// newBERGrid validates the grid parameters and evaluates BitErrorRate at
// every grid point.
func newBERGrid(minDB, maxDB, stepDB float64) (berGrid, error) {
	switch {
	case math.IsNaN(minDB) || math.IsNaN(maxDB) || math.IsNaN(stepDB):
		return berGrid{}, fmt.Errorf("phy: PER table bounds must be numbers, got [%v, %v] step %v", minDB, maxDB, stepDB)
	case stepDB <= 0:
		return berGrid{}, fmt.Errorf("phy: PER table step must be positive, got %v", stepDB)
	case maxDB < minDB:
		return berGrid{}, fmt.Errorf("phy: PER table domain inverted: [%v, %v]", minDB, maxDB)
	}
	n := int(math.Round((maxDB-minDB)/stepDB)) + 1
	if n > maxPERTablePoints {
		return berGrid{}, fmt.Errorf("phy: PER table would hold %d points (max %d): grid too fine for its span", n, maxPERTablePoints)
	}
	g := berGrid{minDB: minDB, stepDB: stepDB, ber: make([]float64, n)}
	for i := range g.ber {
		g.ber[i] = BitErrorRate(g.grid(i))
	}
	return g, nil
}

// NewPERTable builds a table of BitErrorRate and PacketErrorRate(·, bits)
// on the grid minDB + i·stepDB, i = 0 … round((maxDB−minDB)/stepDB). It
// returns an error — never a partially checked table — if the parameters
// are malformed or the equivalence proof fails at any grid point.
func NewPERTable(minDB, maxDB, stepDB float64, bits int) (*PERTable, error) {
	if bits <= 0 {
		return nil, fmt.Errorf("phy: PER table frame size must be positive, got %d bits", bits)
	}
	g, err := newBERGrid(minDB, maxDB, stepDB)
	if err != nil {
		return nil, err
	}
	t := &PERTable{berGrid: g, bits: bits, per: make([]float64, len(g.ber))}
	for i := range t.per {
		t.per[i] = PacketErrorRate(t.grid(i), bits)
	}
	if err := t.verify(); err != nil {
		return nil, err
	}
	return t, nil
}

// NewPERTableWithBudget builds the same table and additionally bounds the
// off-grid quantisation error: the worst absolute deviation between the
// table and the closed forms, probed at every cell midpoint (where
// nearest-grid rounding error peaks) and at the clamp edges, must not
// exceed budget, or the table is rejected. This is the explicit opt-in
// for using the table as an approximation of arbitrary SINRs.
func NewPERTableWithBudget(minDB, maxDB, stepDB float64, bits int, budget float64) (*PERTable, error) {
	if math.IsNaN(budget) || budget < 0 {
		return nil, fmt.Errorf("phy: PER table accuracy budget must be non-negative, got %v", budget)
	}
	t, err := NewPERTable(minDB, maxDB, stepDB, bits)
	if err != nil {
		return nil, err
	}
	if worst := t.maxQuantisationError(); worst > budget {
		return nil, fmt.Errorf("phy: PER table quantisation error %v exceeds budget %v (step %v dB over [%v, %v])",
			worst, budget, stepDB, minDB, maxDB)
	}
	return t, nil
}

// grid returns the SINR of grid point i, computed the one way every
// build, verify and lookup path must share: a single multiply-add from the
// origin, so no two call sites can disagree by a rounding step.
func (g *berGrid) grid(i int) float64 { return g.minDB + float64(i)*g.stepDB }

// verify is the equivalence proof: every grid point, looked up through
// the public quantising accessors, must reproduce the closed forms
// bit-for-bit.
func (t *PERTable) verify() error {
	for i := range t.ber {
		s := t.grid(i)
		if got, want := t.BER(s), BitErrorRate(s); got != want {
			return fmt.Errorf("phy: PER table rejected: BER(%v dB) = %v via table, %v via closed form", s, got, want)
		}
		if got, want := t.PER(s), PacketErrorRate(s, t.bits); got != want {
			return fmt.Errorf("phy: PER table rejected: PER(%v dB) = %v via table, %v via closed form", s, got, want)
		}
	}
	return nil
}

// maxQuantisationError probes the cell midpoints and the out-of-domain
// clamp edges for the largest absolute deviation between table lookups
// and the closed forms, across both curves.
func (t *PERTable) maxQuantisationError() float64 {
	worst := 0.0
	probe := func(s float64) {
		if d := math.Abs(t.BER(s) - BitErrorRate(s)); d > worst {
			worst = d
		}
		if d := math.Abs(t.PER(s) - PacketErrorRate(s, t.bits)); d > worst {
			worst = d
		}
	}
	for i := 0; i < len(t.ber)-1; i++ {
		probe(t.grid(i) + t.stepDB/2)
	}
	probe(t.minDB - t.stepDB)
	probe(t.grid(len(t.ber)-1) + t.stepDB)
	return worst
}

// index quantises a SINR to its nearest grid point, clamping outside the
// domain (the curves are flat well before any sane domain's edges).
func (t *PERTable) index(sinrDB float64) int {
	i := int(math.Round((sinrDB - t.minDB) / t.stepDB))
	if i < 0 {
		return 0
	}
	if i >= len(t.ber) {
		return len(t.ber) - 1
	}
	return i
}

// Bits returns the frame size the PER column was built for.
func (t *PERTable) Bits() int { return t.bits }

// BER returns the tabulated bit-error rate at the grid point nearest
// sinrDB.
func (t *PERTable) BER(sinrDB float64) float64 { return t.ber[t.index(sinrDB)] }

// PER returns the tabulated packet-error rate at the grid point nearest
// sinrDB, for frames of Bits() bits.
func (t *PERTable) PER(sinrDB float64) float64 { return t.per[t.index(sinrDB)] }

// PERBatch fills dst with the tabulated PER of each SINR in sinrs. The
// slices must have equal length; dst may alias sinrs.
func (t *PERTable) PERBatch(dst, sinrs []float64) {
	if len(sinrs) == 0 {
		return
	}
	_ = dst[len(sinrs)-1]
	for i, s := range sinrs {
		dst[i] = t.per[t.index(s)]
	}
}
