package main

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
	"time"

	"nonortho/internal/dcn"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
	"nonortho/internal/trace"
)

// traceCap sizes each testbed's trace recorder in the traced run. It must
// hold every event of a design's run (about 100k in dense-cell's DCN
// design), or the threshold-change count falls short; the run warns if
// the recorder drops any.
const traceCap = 1 << 18

// lossBoundDB is the near-field loss bound every experiment driver builds
// its snapshots with.
const lossBoundDB = 150

// cellWorkload is a workload of long single-threaded cells that the
// benchmark builds and advances itself, one design after the other, in
// fixed virtual slices: dense-cell and city.
type cellWorkload struct {
	// warmup is run in slices too, so phase changes are sampled through it.
	warmup, slice time.Duration
	// slices is the number of measured slices per design.
	slices int
	// build makes the snapshots and testbeds of one pass, in the order
	// they run, with trace recorders of recCap events when recCap > 0.
	build func(seed int64, recCap int, tr *tracer, parent int) (*cellSet, error)
}

// cellSet is one pass's built designs.
type cellSet struct {
	names  []string
	tbs    []*testbed.Testbed
	cell   []int             // each design's deployment: the designs of one deployment form a cell
	buildS []float64         // each design's testbed build
	recs   []*trace.Recorder // traced passes only
	// snapS is the set-up's snapshot build time; buildS holds the rest,
	// testbed.New plus AddNetwork.
	snapS float64
	// nearPairs and pairs give the share of the dense pair matrix the
	// near-field snapshots materialise.
	nearPairs, pairs float64
}

// snapshot times one snapshot build into cs.
func (cs *cellSet) snapshot(tr *tracer, parent int, name string, build func() (*topology.Snapshot, error)) (*topology.Snapshot, error) {
	t0 := now()
	snap, err := build()
	t1 := now()
	tr.add("snapshot "+name, parent, t0.wall, t1.wall)
	if err != nil {
		return nil, fmt.Errorf("snapshot %s: %w", name, err)
	}
	cs.snapS += t0.cpuSeconds(t1)
	n := float64(snap.NumNodes())
	cs.nearPairs += float64(snap.NearPairs())
	cs.pairs += n * n
	return snap, nil
}

// add times testbed.New plus AddNetwork for one design of a deployment
// into cs.
func (cs *cellSet) add(tr *tracer, parent, cell int, name string, snap *topology.Snapshot, opts testbed.Options, cfg testbed.NetworkConfig, recCap int) {
	t0 := now()
	tb := testbed.New(opts)
	if recCap > 0 {
		cs.recs = append(cs.recs, tb.EnableTrace(recCap))
	}
	for _, spec := range snap.Networks() {
		tb.AddNetwork(spec, cfg)
	}
	t1 := now()
	tr.add("build "+name, parent, t0.wall, t1.wall)
	cs.buildS = append(cs.buildS, t0.cpuSeconds(t1))
	cs.names = append(cs.names, name)
	cs.tbs = append(cs.tbs, tb)
	cs.cell = append(cs.cell, cell)
}

// evalPlan is the evaluation's n-channel plan: centers cfd apart from
// 2458 MHz, as the experiment drivers build it.
func evalPlan(n int, cfd phy.MHz) phy.ChannelPlan {
	centers := make([]phy.MHz, n)
	for i := range centers {
		centers[i] = 2458 + phy.MHz(i)*cfd
	}
	return phy.ChannelPlan{Start: 2458, Bandwidth: phy.MHz(n-1) * cfd, CFD: cfd, Centers: centers}
}

// denseDeployments is how many independent deployments dense-cell runs
// each design on per pass. How much work a saturated cell does depends on
// its placement (how often the DCN design's neighbours collide), so one
// deployment per run would make the run's cost follow the seed's
// placement; three, like the experiments' default Seeds, average it out.
const denseDeployments = 3

// denseCell is the Fig 19 pair as long cells: the ZigBee design (4
// channels at CFD 5, fixed CSMA) and the DCN design (6 channels at CFD 3),
// colocated and saturated, each 2 s of warmup then 30 s in 0.5 s slices,
// on denseDeployments deployments. Run seed n uses deployment seeds
// 3n, 3n+1 and 3n+2, so no two run seeds share a deployment.
var denseCell = cellWorkload{
	warmup: 2 * time.Second, slice: 500 * time.Millisecond, slices: 60,
	build: func(seed int64, recCap int, tr *tracer, parent int) (*cellSet, error) {
		cs := &cellSet{}
		for k := int64(0); k < denseDeployments; k++ {
			dseed := seed*denseDeployments + k
			for _, d := range []struct {
				name   string
				plan   phy.ChannelPlan
				scheme testbed.Scheme
			}{
				{"zigbee", evalPlan(4, 5), testbed.SchemeFixed},
				{"dcn", evalPlan(6, 3), testbed.SchemeDCN},
			} {
				name := fmt.Sprintf("%s-%d", d.name, dseed)
				cfg := topology.Config{Plan: d.plan, Layout: topology.LayoutColocated}
				snap, err := cs.snapshot(tr, parent, name, func() (*topology.Snapshot, error) {
					return topology.NewSnapshotNear(cfg, sim.NewRNG(dseed), nil, lossBoundDB)
				})
				if err != nil {
					return nil, err
				}
				cs.add(tr, parent, int(k), name, snap, testbed.Options{Seed: dseed, Topology: snap},
					testbed.NetworkConfig{Scheme: d.scheme}, recCap)
			}
		}
		return cs, nil
	},
}

// City-scale cell parameters: the middle rung of the cityscale ladder.
const (
	cityNetworks    = 400
	cityFarFieldDB  = 0.5
	cityPeriod      = 500 * time.Millisecond
	citySidePerNet  = 200 // metres of side per √network, as cityscale scales area
	cityChannels    = 6
	cityChannelsCFD = 3
)

// city is 400 networks (2,000 nodes) over a 4 km square on the 6-channel
// CFD 3 plan with 500 ms periodic traffic, on a near-field snapshot and a
// 0.5 dB far-field fold; one snapshot serves a fixed-CSMA and a DCN
// testbed, each 2 s of warmup then 3 s. Every sender's ticker fires at the
// same instants, so nearly all of a traffic period's work lands in one
// 100 ms slice and the other four are empty; a slice is therefore one
// whole period, so every slice sample holds the same work.
var city = cellWorkload{
	warmup: 2 * time.Second, slice: cityPeriod, slices: 6,
	build: func(seed int64, recCap int, tr *tracer, parent int) (*cellSet, error) {
		cs := &cellSet{}
		cfg := topology.CityConfig{
			Plan:     evalPlan(cityChannels, cityChannelsCFD),
			Networks: cityNetworks,
			AreaSide: citySidePerNet * math.Sqrt(cityNetworks),
		}
		snap, err := cs.snapshot(tr, parent, "city", func() (*topology.Snapshot, error) {
			nets, err := topology.GenerateCity(cfg, sim.NewRNG(seed))
			if err != nil {
				return nil, err
			}
			return topology.SnapshotFromSpecsNear(nets, nil, lossBoundDB)
		})
		if err != nil {
			return nil, err
		}
		opts := testbed.Options{Seed: seed, Topology: snap, FarFieldBudget: cityFarFieldDB}
		cs.add(tr, parent, 0, "fixed", snap, opts, testbed.NetworkConfig{Scheme: testbed.SchemeFixed, Period: cityPeriod}, recCap)
		cs.add(tr, parent, 0, "dcn", snap, opts, testbed.NetworkConfig{Scheme: testbed.SchemeDCN, Period: cityPeriod}, recCap)
		return cs, nil
	},
}

// setup times one set-up alone: snapshot build plus testbeds, no events.
func (w cellWorkload) setup(seed int64) (float64, error) {
	t0 := now()
	_, err := w.build(seed, 0, nil, 0)
	return t0.cpuSeconds(now()), err
}

// pass builds every design, then advances each in turn through warmup and
// the measured slices. A cell is one deployment: the build and run of
// every design on it. Each ms-per-virtual-second sample is one slice index
// summed across the designs. Both sum over designs so that they weigh the
// designs equally whatever their costs, and their samples do not split
// into one cluster per design.
func (w cellWorkload) pass(seed int64, tr *tracer, parent int) (passResult, error) {
	var res passResult
	recCap := 0
	if tr != nil {
		recCap = traceCap
	}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := now()
	setupSpan := tr.begin("setup", parent)
	cs, err := w.build(seed, recCap, tr, setupSpan)
	tr.end(setupSpan)
	if err != nil {
		return res, err
	}
	res.setup = t0.cpuSeconds(now())

	warmSlices := int(w.warmup / w.slice)
	sliceMs := make([][]float64, len(cs.tbs))
	var runS float64
	cellMs := map[int]float64{}
	phaseChanges := 0
	for d, tb := range cs.tbs {
		dspan := tr.begin("run "+cs.names[d], parent)
		var phases []dcn.Phase
		samplePhases := func() {
			if tr == nil {
				return
			}
			i := 0
			eachNode(tb, func(n *testbed.Node) {
				if n.Adjustor == nil {
					return
				}
				p := n.Adjustor.Phase()
				if i == len(phases) {
					phases = append(phases, dcn.PhaseStopped)
				}
				if p != phases[i] {
					phaseChanges++
					phases[i] = p
				}
				i++
			})
		}
		samplePhases()
		r0 := now()
		for i := 0; i < warmSlices; i++ {
			tb.Run(w.slice, 0)
			samplePhases()
		}
		tr.add("warmup", dspan, r0.wall, time.Now())
		sliceMs[d] = make([]float64, w.slices)
		for i := range sliceMs[d] {
			s := now()
			tb.Run(0, w.slice)
			e := now()
			tr.add("slice", dspan, s.wall, e.wall)
			sliceMs[d][i] = 1e3 * s.cpuSeconds(e)
			samplePhases()
		}
		run := r0.cpuSeconds(now())
		runS += run
		cellMs[cs.cell[d]] += 1e3 * (cs.buildS[d] + run)
		tr.end(dspan)
	}
	t1 := now()
	res.cpu, res.wall = t0.cpuSeconds(t1), t1.wall.Sub(t0.wall).Seconds()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	res.liveMB = liveHeapMB() // every testbed is still referenced below

	for c := 0; c < len(cellMs); c++ {
		res.cellMs = append(res.cellMs, cellMs[c])
	}
	vsecPerSample := float64(len(cs.tbs)) * w.slice.Seconds()
	for i := 0; i < w.slices; i++ {
		ms := 0.0
		for d := range cs.tbs {
			ms += sliceMs[d][i]
		}
		res.vsecMs = append(res.vsecMs, ms/vsecPerSample)
	}
	measured := time.Duration(w.slices) * w.slice
	for d, tb := range cs.tbs {
		res.outputs = append(res.outputs, cellOutput(cs.names[d], tb, measured))
	}
	if tr != nil {
		res.layers = cellLayers(cs, runS, phaseChanges, w.warmup+measured)
	}
	for _, tb := range cs.tbs {
		tb.Close()
	}
	return res, nil
}

// eachNode visits every node of every network: senders, then the sink.
func eachNode(tb *testbed.Testbed, visit func(*testbed.Node)) {
	for _, n := range tb.Networks() {
		for _, s := range n.Senders {
			visit(s)
		}
		visit(n.Sink)
	}
}

// cellOutput digests one design's deterministic outputs — per-network
// throughput and link counters — and checks the invariants any correct
// run keeps.
func cellOutput(name string, tb *testbed.Testbed, measured time.Duration) output {
	var b strings.Builder
	var problems []string
	if got := tb.MeasuredDuration(); got != measured {
		problems = append(problems, fmt.Sprintf("measured %v, want %v", got, measured))
	}
	for i, n := range tb.Networks() {
		l := n.Stats()
		thr := n.Throughput(measured)
		fmt.Fprintf(&b, "%d %s %d %d %d %d %d %d\n", i, strconv.FormatFloat(thr, 'g', -1, 64),
			l.Sent, l.Received, l.CRCFailed, l.Collided, l.CollidedOK, l.AccessFailures)
		if l.Received > l.Sent || l.CollidedOK > l.Collided || thr < 0 {
			problems = append(problems, fmt.Sprintf("network %d counters inconsistent: %+v", i, l))
		}
	}
	if tb.OverallThroughput() <= 0 {
		problems = append(problems, "no frame delivered")
	}
	out := output{name: name, digest: digest(b.String())}
	if len(problems) > 0 {
		out.err = fmt.Errorf("%s", strings.Join(problems, "; "))
	}
	return out
}

// cellLayers reads the per-layer counters of a traced pass from public
// accessors.
func cellLayers(cs *cellSet, runS float64, phaseChanges int, vtime time.Duration) map[string]float64 {
	m := map[string]float64{
		"topology.snapshot_s":     cs.snapS,
		"topology.near_pair_frac": cs.nearPairs / cs.pairs,
		"testbed.build_s":         dist(cs.buildS).sum(),
		"testbed.run_s":           runS,
		"dcn.phase_changes":       float64(phaseChanges),
	}
	var events, txEvents, callbacks float64
	var sent, busy, clear, accessFail, linkSent, received, crcFailed, collided float64
	for _, tb := range cs.tbs {
		events += float64(tb.Kernel.FiredEvents())
		ds := tb.Medium.DisseminationStats()
		txEvents += float64(ds.Events)
		callbacks += float64(ds.Callbacks)
		eachNode(tb, func(n *testbed.Node) {
			c := n.MAC.Counters()
			sent += float64(c.Sent)
			busy += float64(c.BusyCCA)
			clear += float64(c.ClearCCA)
			accessFail += float64(c.AccessFailures)
		})
		for _, n := range tb.Networks() {
			l := n.Stats()
			linkSent += float64(l.Sent)
			received += float64(l.Received)
			crcFailed += float64(l.CRCFailed)
			collided += float64(l.Collided)
		}
	}
	var thresholds float64
	for _, r := range cs.recs {
		thresholds += float64(r.Counts()[trace.KindThreshold])
		if r.Dropped() > 0 {
			fmt.Printf("warning: trace recorder dropped %d events; dcn.threshold_changes is a lower bound\n", r.Dropped())
		}
	}
	m["sim.events"] = events
	m["sim.events_per_vsec"] = events / (float64(len(cs.tbs)) * vtime.Seconds())
	m["medium.tx_events"] = txEvents
	m["medium.callbacks"] = callbacks
	m["medium.callbacks_per_event"] = ratio(callbacks, txEvents)
	m["mac.sent"] = sent
	m["mac.busy_cca_frac"] = ratio(busy, busy+clear)
	m["mac.access_failures"] = accessFail
	m["radio.received"] = received
	m["radio.crc_failed"] = crcFailed
	m["radio.collided"] = collided
	m["radio.prr"] = ratio(received, linkSent)
	m["dcn.threshold_changes"] = thresholds
	return m
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
