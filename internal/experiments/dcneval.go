package experiments

import (
	"nonortho/internal/phy"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// fiveNetworksConfig is the Fig. 13 configuration: five colocated networks
// spaced cfd apart.
func fiveNetworksConfig(cfd phy.MHz) topology.Config {
	return topology.Config{Plan: evalPlan(5, cfd), Layout: topology.LayoutColocated}
}

// fiveNetworks instantiates one five-network cell from a shared topology
// snapshot, with the DCN scheme applied to the selected network indices
// (nil = none, the w/o-scheme baseline).
func fiveNetworks(opts Options, seed int64, snap *topology.Snapshot, dcnOn func(i int) bool) *testbed.Testbed {
	tb := newCellTestbed(opts, testbed.Options{Seed: seed, Topology: snap})
	for i, spec := range snap.Networks() {
		scheme := testbed.SchemeFixed
		if dcnOn != nil && dcnOn(i) {
			scheme = testbed.SchemeDCN
		}
		tb.AddNetwork(spec, testbed.NetworkConfig{Scheme: scheme})
	}
	return tb
}

// middleIndex is the paper's N0: the network on the median frequency of a
// five-network strip.
const middleIndex = 2

// fiveNetsVariant is one (CFD, scheme-assignment) configuration of the
// five-network evaluation.
type fiveNetsVariant struct {
	cfd   phy.MHz
	dcnOn func(i int) bool
}

// runFiveNetworksSet measures per-network throughput for every variant,
// averaged over seeds, fanning all variant×seed simulations across the
// worker pool in one grid.
func runFiveNetworksSet(variants []fiveNetsVariant, opts Options) [][]float64 {
	// One snapshot set per distinct CFD: scheme variants at the same CFD
	// share placements and geometry. Built serially before the fan-out;
	// the map is read-only inside the cells.
	topos := make(map[phy.MHz]seedTopos, len(variants))
	for _, v := range variants {
		if _, ok := topos[v.cfd]; !ok {
			topos[v.cfd] = snapshotSeeds(opts, fiveNetworksConfig(v.cfd))
		}
	}
	grid := runGrid(opts, len(variants), func(cell int, seed int64) []float64 {
		v := variants[cell]
		tb := fiveNetworks(opts, seed, topos[v.cfd].at(seed), v.dcnOn)
		tb.Run(opts.Warmup, opts.Measure)
		return tb.PerNetworkThroughput()
	})
	out := make([][]float64, len(variants))
	for i := range variants {
		out[i] = meanRows(grid[i])
	}
	return out
}

// Fig14Row compares N0's throughput with and without DCN at one CFD.
type Fig14Row struct {
	CFD           phy.MHz
	N0Without     float64
	N0With        float64
	OthersWithout float64
	OthersWith    float64
}

// Fig14Result backs Figs. 14 and 15: DCN applied only on N0.
type Fig14Result struct{ Rows []Fig14Row }

// Fig14and15 regenerates Figs. 14 and 15: with five networks at CFD ∈
// {2, 3} MHz, DCN is enabled only on the middle network N0. Shape: N0
// gains substantially (the paper reports ~27 %) while the other networks
// lose a little (~5 %) to the extra concurrency.
func Fig14and15(opts Options) (Fig14Result, *Table, *Table) {
	opts = opts.withDefaults()
	onN0 := func(i int) bool { return i == middleIndex }
	per := runFiveNetworksSet([]fiveNetsVariant{
		{2, nil}, {2, onN0}, {3, nil}, {3, onN0},
	}, opts)
	var res Fig14Result
	for ci, cfd := range []phy.MHz{2, 3} {
		baseline, dcnOnN0 := per[2*ci], per[2*ci+1]
		row := Fig14Row{
			CFD:       cfd,
			N0Without: baseline[middleIndex],
			N0With:    dcnOnN0[middleIndex],
		}
		for i := range baseline {
			if i == middleIndex {
				continue
			}
			row.OthersWithout += baseline[i]
			row.OthersWith += dcnOnN0[i]
		}
		res.Rows = append(res.Rows, row)
	}

	t14 := &Table{
		Title:   "Fig 14: Throughput of network N0 (DCN only on N0)",
		Columns: []string{"CFD (MHz)", "w/o scheme (pkt/s)", "with scheme (pkt/s)", "gain"},
	}
	t15 := &Table{
		Title:   "Fig 15: Throughput of networks except N0 (DCN only on N0)",
		Columns: []string{"CFD (MHz)", "w/o scheme (pkt/s)", "with scheme (pkt/s)", "change"},
	}
	for _, r := range res.Rows {
		t14.AddRow(f0(float64(r.CFD)), f0(r.N0Without), f0(r.N0With), pct(r.N0With/r.N0Without-1))
		t15.AddRow(f0(float64(r.CFD)), f0(r.OthersWithout), f0(r.OthersWith), pct(r.OthersWith/r.OthersWithout-1))
	}
	return res, t14, t15
}

// Fig16Row is one network's pair of bars.
type Fig16Row struct {
	Network string
	Without float64
	With    float64
}

// Fig16Result backs Figs. 16 (CFD = 2 MHz) and 17 (CFD = 3 MHz).
type Fig16Result struct {
	CFD  phy.MHz
	Rows []Fig16Row
}

// figAllNetworks runs the DCN-on-all-networks comparison at one CFD.
func figAllNetworks(cfd phy.MHz, opts Options) Fig16Result {
	per := runFiveNetworksSet([]fiveNetsVariant{
		{cfd, nil}, {cfd, func(int) bool { return true }},
	}, opts)
	baseline, withDCN := per[0], per[1]
	res := Fig16Result{CFD: cfd}
	for i := range baseline {
		res.Rows = append(res.Rows, Fig16Row{
			Network: testbed.NetworkLabel(i),
			Without: baseline[i],
			With:    withDCN[i],
		})
	}
	return res
}

func figAllNetworksTable(res Fig16Result, title string) *Table {
	t := &Table{
		Title:   title,
		Columns: []string{"network", "w/o scheme (pkt/s)", "with scheme (pkt/s)", "gain"},
	}
	for _, r := range res.Rows {
		t.AddRow(r.Network, f0(r.Without), f0(r.With), pct(r.With/r.Without-1))
	}
	return t
}

// Fig16 regenerates Fig. 16: per-network throughput with DCN on every
// network at CFD = 2 MHz. Every network should improve.
func Fig16(opts Options) (Fig16Result, *Table) {
	opts = opts.withDefaults()
	res := figAllNetworks(2, opts)
	return res, figAllNetworksTable(res, "Fig 16: Per-network throughput (CFD=2 MHz, DCN on all networks)")
}

// Fig17 regenerates Fig. 17: the same comparison at CFD = 3 MHz. Shape:
// every network improves, with the middle network gaining most and the
// boundary networks least (they face less inter-channel interference).
func Fig17(opts Options) (Fig16Result, *Table) {
	opts = opts.withDefaults()
	res := figAllNetworks(3, opts)
	return res, figAllNetworksTable(res, "Fig 17: Per-network throughput (CFD=3 MHz, DCN on all networks)")
}

// Fig18Row aggregates one CFD's overall throughput.
type Fig18Row struct {
	CFD     phy.MHz
	Without float64
	With    float64
}

// Fig18Result is the CFD-selection experiment.
type Fig18Result struct{ Rows []Fig18Row }

// Fig18 regenerates Fig. 18: overall throughput of the five networks at
// CFD = 2 vs 3 MHz, with and without DCN. Shape: CFD = 3 MHz wins (the
// paper reports ~1.37x the CFD = 2 MHz overall), which is why DCN selects
// CFD = 3 MHz for the non-orthogonal design.
func Fig18(opts Options) (Fig18Result, *Table) {
	opts = opts.withDefaults()
	all := func(int) bool { return true }
	per := runFiveNetworksSet([]fiveNetsVariant{
		{2, nil}, {2, all}, {3, nil}, {3, all},
	}, opts)
	var res Fig18Result
	for ci, cfd := range []phy.MHz{2, 3} {
		baseline, withDCN := per[2*ci], per[2*ci+1]
		var wo, wi float64
		for i := range baseline {
			wo += baseline[i]
			wi += withDCN[i]
		}
		res.Rows = append(res.Rows, Fig18Row{CFD: cfd, Without: wo, With: wi})
	}
	t := &Table{
		Title:   "Fig 18: Overall throughput vs CFD (DCN on all networks)",
		Columns: []string{"CFD (MHz)", "w/o scheme (pkt/s)", "with scheme (pkt/s)", "gain"},
	}
	for _, r := range res.Rows {
		t.AddRow(f0(float64(r.CFD)), f0(r.Without), f0(r.With), pct(r.With/r.Without-1))
	}
	return res, t
}
