package experiments

import (
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// UpperBoundRow is one (geometry, policy) outcome in the Section VII-C
// study.
type UpperBoundRow struct {
	Geometry string
	Policy   string
	Total    float64
}

// UpperBoundResult quantifies both halves of the paper's Section VII-C
// discussion.
type UpperBoundResult struct {
	Rows []UpperBoundRow
	// DenseOracleOverDCN is the oracle's gain over DCN in the dense
	// fixed-power geometry (the intended "upper bound" reading).
	DenseOracleOverDCN float64
	// SparseOracleOverFixed is the oracle's "gain" in the weak-link
	// Case III geometry — negative, quantifying the paper's warning that
	// ignoring all neighbour-channel interference is unsafe.
	SparseOracleOverFixed float64
}

// UpperBound quantifies both claims of the paper's Section VII-C
// discussion with an oracle CCA that perfectly differentiates co-channel
// from inter-channel interference (something no deployed radio can do):
//
//  1. In the dense fixed-power geometry, the oracle is the upper bound of
//     threshold adaptation — and DCN already sits essentially on it: the
//     co-channel RSSI floor lies above all neighbour-channel energy, so a
//     single threshold separates the two perfectly.
//  2. In the weak-link Case III geometry with random powers, the oracle
//     BACKFIRES: "non-orthogonal design anyhow introduces inter-channel
//     interference, which might corrupt transmission in some cases.
//     Therefore, ignoring all the neighbouring-channel interference is
//     unsafe" (the paper's own words). Deference to inter-channel energy
//     doubles as crude interference avoidance for fragile links, and the
//     oracle throws that protection away.
func UpperBound(opts Options) (UpperBoundResult, *Table) {
	opts = opts.withDefaults()

	policies := []struct {
		name   string
		scheme testbed.Scheme
	}{
		{"fixed -77 dBm", testbed.SchemeFixed},
		{"DCN", testbed.SchemeDCN},
		{"oracle", testbed.SchemeOracle},
	}
	geometries := []struct {
		name   string
		sparse bool
	}{
		{"dense, 0 dBm", false},
		{"Case III, random power", true},
	}
	// One snapshot set per geometry: the three policies of a (geometry,
	// seed) pair share placements and the loss matrix.
	plan := evalPlan(6, 3)
	denseTopos := snapshotSeeds(opts, topology.Config{Plan: plan, Layout: topology.LayoutColocated})
	region, link := caseGeometry(topology.LayoutRandomField)
	sparseTopos := snapshotSeeds(opts, topology.Config{
		Plan:         plan,
		Layout:       topology.LayoutRandomField,
		Power:        topology.UniformPower(-22, 0),
		RegionRadius: region,
		LinkRadius:   link,
	})
	// Cells: geometry-major, policy-minor — the table's row order.
	grid := runGrid(opts, len(geometries)*len(policies), func(cell int, seed int64) float64 {
		scheme := policies[cell%len(policies)].scheme
		topos := denseTopos
		if geometries[cell/len(policies)].sparse {
			topos = sparseTopos
		}
		snap := topos.at(seed)
		tb := newCellTestbed(opts, testbed.Options{Seed: seed, Topology: snap})
		for _, spec := range snap.Networks() {
			tb.AddNetwork(spec, testbed.NetworkConfig{Scheme: scheme})
		}
		tb.Run(opts.Warmup, opts.Measure)
		return tb.OverallThroughput()
	})

	var res UpperBoundResult
	totals := map[[2]string]float64{}
	for gi, g := range geometries {
		for pi, p := range policies {
			total := sum(grid[gi*len(policies)+pi]) / float64(opts.Seeds)
			totals[[2]string{g.name, p.name}] = total
			res.Rows = append(res.Rows, UpperBoundRow{Geometry: g.name, Policy: p.name, Total: total})
		}
	}
	res.DenseOracleOverDCN = totals[[2]string{"dense, 0 dBm", "oracle"}]/
		totals[[2]string{"dense, 0 dBm", "DCN"}] - 1
	res.SparseOracleOverFixed = totals[[2]string{"Case III, random power", "oracle"}]/
		totals[[2]string{"Case III, random power", "fixed -77 dBm"}] - 1

	t := &Table{
		Title:   "Extension (Section VII-C): the interference-differentiating oracle, both regimes",
		Columns: []string{"geometry", "policy", "total (pkt/s)"},
	}
	for _, r := range res.Rows {
		t.AddRow(r.Geometry, r.Policy, f0(r.Total))
	}
	t.AddRow("oracle vs DCN (dense)", pct(res.DenseOracleOverDCN), "")
	t.AddRow("oracle vs fixed (Case III)", pct(res.SparseOracleOverFixed), "")
	return res, t
}
