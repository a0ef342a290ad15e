package experiments

import (
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// CaseResult is one network-configuration comparison (Figs. 25-27).
type CaseResult struct {
	Layout topology.Layout
	// The three bars of each figure.
	ZigBee     float64
	WithoutDCN float64
	WithDCN    float64
	// Gains relative to the two baselines.
	GainOverWithout float64
	GainOverZigBee  float64
}

// caseGeometry returns the deployment scale of each case. Case I packs
// every node into one small region ("deployed close to each other", strong
// mutual interference); Case II separates per-network clusters by a few
// meters; Case III spreads interleaved networks over a larger field with
// long intra-network links, so co-channel peers are heard at low RSSI —
// the condition that pins the DCN threshold down.
func caseGeometry(layout topology.Layout) (regionRadius, linkRadius float64) {
	switch layout {
	case topology.LayoutColocated:
		return 0.8, 1.0
	case topology.LayoutClustered:
		return 4.0, 1.0
	default: // LayoutRandomField
		return 2.5, 1.8
	}
}

// runCase executes one deployment case: transmit powers random in
// [-22, 0] dBm (Section VI-B.4), three designs compared.
func runCase(layout topology.Layout, opts Options) CaseResult {
	power := topology.UniformPower(-22, 0)
	region, link := caseGeometry(layout)
	// One snapshot set per channel plan: the two CFD-3 cells share one.
	zigTopos := snapshotSeeds(opts, caseConfig(false, layout, power, region, link))
	cfdTopos := snapshotSeeds(opts, caseConfig(true, layout, power, region, link))
	// Cells: 0 = ZigBee, 1 = CFD 3 without DCN, 2 = CFD 3 with DCN.
	grid := runGrid(opts, 3, func(cell int, seed int64) float64 {
		topos := zigTopos
		if cell >= 1 {
			topos = cfdTopos
		}
		tb := caseDesign(opts, seed, topos.at(seed), cell == 2)
		tb.Run(opts.Warmup, opts.Measure)
		return tb.OverallThroughput()
	})
	n := float64(opts.Seeds)
	res := CaseResult{
		Layout:     layout,
		ZigBee:     sum(grid[0]) / n,
		WithoutDCN: sum(grid[1]) / n,
		WithDCN:    sum(grid[2]) / n,
	}
	res.GainOverWithout = res.WithDCN/res.WithoutDCN - 1
	res.GainOverZigBee = res.WithDCN/res.ZigBee - 1
	return res
}

// caseConfig is bandConfig with explicit geometry scales.
func caseConfig(nonOrthogonal bool, layout topology.Layout, power topology.PowerPolicy, region, link float64) topology.Config {
	plan := evalPlan(4, 5)
	if nonOrthogonal {
		plan = evalPlan(6, 3)
	}
	return topology.Config{
		Plan:         plan,
		Layout:       layout,
		Power:        power,
		RegionRadius: region,
		LinkRadius:   link,
	}
}

// caseDesign instantiates one deployment-case cell from a shared snapshot.
func caseDesign(opts Options, seed int64, snap *topology.Snapshot, dcnEnabled bool) *testbed.Testbed {
	tb := newCellTestbed(opts, testbed.Options{Seed: seed, Topology: snap})
	scheme := testbed.SchemeFixed
	if dcnEnabled {
		scheme = testbed.SchemeDCN
	}
	for _, spec := range snap.Networks() {
		tb.AddNetwork(spec, testbed.NetworkConfig{Scheme: scheme})
	}
	return tb
}

func caseTable(res CaseResult, title string) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"design", "throughput (pkt/s)"},
	}
	t.AddRow("ZigBee", f0(res.ZigBee))
	t.AddRow("W/o DCN (CFD=3)", f0(res.WithoutDCN))
	t.AddRow("With DCN (CFD=3)", f0(res.WithDCN))
	t.AddRow("gain vs w/o DCN", pct(res.GainOverWithout))
	t.AddRow("gain vs ZigBee", pct(res.GainOverZigBee))
	return t
}

// Fig25 regenerates Fig. 25 — Case I, all networks in one interfering
// region (Fig. 22), random powers. Paper bars: 983 / 1326 / 1521; DCN
// gains 14.7 % over the plain CFD=3 design and 55.7 % over ZigBee. The
// shapes to hold: ZigBee < w/o DCN < with DCN, and this case shows the
// largest DCN relaxing gain of the three.
func Fig25(opts Options) (CaseResult, *Table) {
	opts = opts.withDefaults()
	res := runCase(topology.LayoutColocated, opts)
	return res, caseTable(res, "Fig 25: Throughput comparison, Case I (one interfering region)")
}

// Fig26 regenerates Fig. 26 — Case II, networks separated into clusters
// (Fig. 23). Paper bars: 980 / 1382 / 1526 (+10.4 % over w/o DCN): the
// weaker inter-cluster interference leaves less for DCN to reclaim than in
// Case I.
func Fig26(opts Options) (CaseResult, *Table) {
	opts = opts.withDefaults()
	res := runCase(topology.LayoutClustered, opts)
	return res, caseTable(res, "Fig 26: Throughput comparison, Case II (separated clusters)")
}

// Fig27 regenerates Fig. 27 — Case III, random topology over a larger
// field (Fig. 24). Paper bars: 983 / 1282 / 1361 (+6.2 % over w/o DCN,
// +38.4 % over ZigBee): weak co-channel RSSI pins the CCA threshold low
// and limits the relaxing gain — the paper's acknowledged weakness.
func Fig27(opts Options) (CaseResult, *Table) {
	opts = opts.withDefaults()
	res := runCase(topology.LayoutRandomField, opts)
	return res, caseTable(res, "Fig 27: Throughput comparison, Case III (random topology)")
}
