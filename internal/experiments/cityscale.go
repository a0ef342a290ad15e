package experiments

import (
	"math"
	"time"

	"nonortho/internal/sim"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// cityFarFieldBudgetDB is the sensed-power error budget the city-scale
// cells grant the medium's far-field fold. Under the default model a
// certified-far transmitter is bounded by MaxTxPower − 150 dB; even
// 50,000 of them aggregate to well under half a dB above the noise floor
// (medium.WithFarField enforces this at Reset — a budget the snapshot
// cannot honour panics instead of degrading silently).
const cityFarFieldBudgetDB = 0.5

// cityPeriod spaces each sender's transmissions. City cells exist to
// measure scaling, not saturation: periodic traffic keeps the event count
// linear in the node count so a 5,000-node cell costs what its population
// implies, not what 4,000 saturated CSMA loops imply.
const cityPeriod = 500 * time.Millisecond

// citySide returns the deployment square's side for a population,
// scaling area linearly with the network count so density — and with it
// the expected near-field neighbourhood size k — stays constant across
// the ladder. 200 m of side per network keeps the 150 dB near range
// (~820 m under the default model) covering a few percent of the city.
func citySide(networks int) float64 {
	return 200 * math.Sqrt(float64(networks))
}

// CityScaleRow is one population's outcome in the city-scale study.
type CityScaleRow struct {
	Networks int
	Nodes    int
	// NearFrac is the fraction of the dense n² pair matrix the near-field
	// snapshot actually materialises (identical across seeds' geometry
	// only in expectation; reported for the first seed).
	NearFrac float64
	// Fixed and DCN are mean per-network goodput (pkt/s) under each scheme.
	Fixed float64
	DCN   float64
	// Gain is DCN/Fixed − 1.
	Gain float64
}

// CityScaleResult backs the city-scale spatial-tier experiment.
type CityScaleResult struct {
	Rows []CityScaleRow
}

// cityPopulations is the population ladder: networks of 5 nodes each
// (4 senders + sink), so 100 → 500 nodes up to 1,000 → 5,000 nodes.
var cityPopulations = []int{100, 400, 1000}

// CityScale is the spatial-tier extension experiment: hundreds to
// thousands of paper-sized networks scattered over a city-scale square,
// cycling the 6-channel CFD=3 plan, run once with fixed-threshold CSMA
// and once with DCN. Snapshots are near-field (loss bound 150 dB) so
// memory is O(n·k), and the medium folds certified-far transmitters into
// the noise floor under an explicit 0.5 dB error budget, so per-event
// cost is bounded by the neighbourhood size k rather than the city
// population n. The paper's claim this probes: whether DCN's per-network
// gain survives when the interferer set is governed by geometry instead
// of a single shared region (under periodic city traffic it does not —
// the adjusted CCA threshold buys nothing when most networks are already
// interference-free, and its extra deferrals cost a few percent).
func CityScale(opts Options) (CityScaleResult, *Table) {
	opts = opts.withDefaults()

	type cityTopos struct {
		base  int64
		snaps []*topology.Snapshot
	}
	// One snapshot per (population, seed), built serially before the cells
	// fan out, exactly like snapshotSeeds — but from city specs.
	topos := make([]cityTopos, len(cityPopulations))
	for p, networks := range cityPopulations {
		cfg := topology.CityConfig{
			Plan:     evalPlan(6, 3),
			Networks: networks,
			AreaSide: citySide(networks),
		}
		ct := cityTopos{base: opts.Seed, snaps: make([]*topology.Snapshot, opts.Seeds)}
		for i := range ct.snaps {
			nets, err := topology.GenerateCity(cfg, sim.NewRNG(opts.Seed+int64(i)))
			if err != nil {
				panic(err) // ladder configurations are static; cannot fail
			}
			snap, err := topology.SnapshotFromSpecsNear(nets, nil, spatialLossBoundDB)
			if err != nil {
				panic(err)
			}
			ct.snaps[i] = snap
		}
		topos[p] = ct
	}

	schemes := []testbed.Scheme{testbed.SchemeFixed, testbed.SchemeDCN}
	grid := runGrid(opts, len(cityPopulations)*len(schemes), func(cell int, seed int64) float64 {
		pop, scheme := cell/len(schemes), schemes[cell%len(schemes)]
		ct := topos[pop]
		snap := ct.snaps[seed-ct.base]
		tb := newCellTestbed(opts, testbed.Options{
			Seed:           seed,
			Topology:       snap,
			FarFieldBudget: cityFarFieldBudgetDB,
		})
		for _, spec := range snap.Networks() {
			tb.AddNetwork(spec, testbed.NetworkConfig{Scheme: scheme, Period: cityPeriod})
		}
		tb.Run(opts.Warmup, opts.Measure)
		return tb.OverallThroughput() / float64(cityPopulations[pop])
	})

	res := CityScaleResult{}
	for p, networks := range cityPopulations {
		snap := topos[p].snaps[0]
		n := snap.NumNodes()
		fixed := mean(grid[p*len(schemes)])
		dcnMean := mean(grid[p*len(schemes)+1])
		res.Rows = append(res.Rows, CityScaleRow{
			Networks: networks,
			Nodes:    n,
			NearFrac: float64(snap.NearPairs()) / float64(n*n),
			Fixed:    fixed,
			DCN:      dcnMean,
			Gain:     dcnMean/fixed - 1,
		})
	}

	t := &Table{
		Title:   "Extension: city-scale spatial tier — per-network goodput vs population (6-channel DCN plan, periodic traffic)",
		Columns: []string{"networks", "nodes", "near pairs", "fixed (pkt/s)", "DCN (pkt/s)", "DCN gain"},
	}
	for _, r := range res.Rows {
		t.AddRow(f0(float64(r.Networks)), f0(float64(r.Nodes)), pct(r.NearFrac), f2(r.Fixed), f2(r.DCN), pct(r.Gain))
	}
	return res, t
}
