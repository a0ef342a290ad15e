package experiments

import (
	"sync"
	"time"

	"nonortho/internal/medium"
	"nonortho/internal/net80211"
	"nonortho/internal/phy"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// Fig1Row is one bar group of Fig. 1: band throughput at one CFD.
type Fig1Row struct {
	CFD        phy.MHz
	Channels   int
	PerNetwork []float64
	Total      float64
}

// Fig1Result is the motivating experiment of Section III-A.
type Fig1Result struct {
	Rows []Fig1Row
}

// Fig1 regenerates Fig. 1: overall throughput on a 12 MHz band for
// CFD ∈ {9, 5, 4, 3, 2} MHz under the default ZigBee MAC (fixed -77 dBm
// CCA), channels packed as the paper counts them (9→1, 5→2, 4→3, 3→4,
// 2→6). The shape to reproduce: maximum at CFD = 3 MHz, with both the
// orthogonal assignment (9 MHz) and the aggressive one (2 MHz) inferior.
func Fig1(opts Options) (Fig1Result, *Table) {
	opts = opts.withDefaults()
	cases := []struct {
		cfd phy.MHz
		n   int
	}{{9, 1}, {5, 2}, {4, 3}, {3, 4}, {2, 6}}

	// One snapshot set per CFD case, shared across that case's seeds.
	topos := make([]seedTopos, len(cases))
	for i, c := range cases {
		topos[i] = snapshotSeeds(opts, topology.Config{
			Plan:   evalPlan(c.n, c.cfd),
			Layout: topology.LayoutColocated,
		})
	}
	grid := runGrid(opts, len(cases), func(cell int, seed int64) []float64 {
		snap := topos[cell].at(seed)
		tb := newCellTestbed(opts, testbed.Options{Seed: seed, Topology: snap})
		for _, spec := range snap.Networks() {
			tb.AddNetwork(spec, testbed.NetworkConfig{Scheme: testbed.SchemeFixed})
		}
		tb.Run(opts.Warmup, opts.Measure)
		return tb.PerNetworkThroughput()
	})

	var res Fig1Result
	for i, c := range cases {
		per := meanRows(grid[i])
		total := 0.0
		for _, v := range per {
			total += v
		}
		res.Rows = append(res.Rows, Fig1Row{CFD: c.cfd, Channels: c.n, PerNetwork: per, Total: total})
	}

	t := &Table{
		Title:   "Fig 1: Bandwidth throughput vs channel frequency distance (12 MHz, fixed CCA)",
		Columns: []string{"CFD (MHz)", "channels", "total (pkt/s)", "per-network (pkt/s)"},
	}
	for _, r := range res.Rows {
		per := ""
		for i, v := range r.PerNetwork {
			if i > 0 {
				per += " "
			}
			per += f0(v)
		}
		t.AddRow(f0(float64(r.CFD)), f0(float64(r.Channels)), f0(r.Total), per)
	}
	return res, t
}

// Fig2Row is one channel-separation point of Fig. 2.
type Fig2Row struct {
	ChannelSep int
	Norm80211  float64
	Norm802154 float64
}

// Fig2Result contrasts 802.11b and 802.15.4 on overlapped channels.
type Fig2Result struct {
	Rows []Fig2Row
}

// Fig2 regenerates Fig. 2 ("uniqueness of 802.15.4 networks"): the
// normalized throughput of a link while a second link runs on a channel
// 0..10 steps away. 802.11b receivers lock onto overlapping-channel
// packets and stay suppressed until ~5 channels of separation; 802.15.4
// receivers cannot decode off-channel packets at all and recover from one
// channel (5 MHz) onwards.
func Fig2(opts Options) (Fig2Result, *Table) {
	opts = opts.withDefaults()

	type pair struct{ WiFi, WPAN float64 }
	grid := runGrid(opts, 11, func(sep int, seed int64) pair {
		return pair{
			WiFi: wifiPairThroughput(seed, sep, opts) / wifiPairThroughput(seed+1000, 99, opts),
			WPAN: wpanPairThroughput(seed, sep, opts) / wpanPairThroughput(seed+1000, 99, opts),
		}
	})

	var res Fig2Result
	for sep := 0; sep <= 10; sep++ {
		var wifi, wpan float64
		for _, p := range grid[sep] {
			wifi += p.WiFi
			wpan += p.WPAN
		}
		res.Rows = append(res.Rows, Fig2Row{
			ChannelSep: sep,
			Norm80211:  wifi / float64(opts.Seeds),
			Norm802154: wpan / float64(opts.Seeds),
		})
	}

	t := &Table{
		Title:   "Fig 2: Normalized link throughput vs channel separation",
		Columns: []string{"channel sep", "802.11b", "802.15.4"},
	}
	for _, r := range res.Rows {
		t.AddRow(f0(float64(r.ChannelSep)), f2(r.Norm80211), f2(r.Norm802154))
	}
	return res, t
}

// wifiPairSnap captures the fixed two-link Fig. 2 geometry in station
// attach order (a.tx, a.rx, b.tx, b.rx) so the raw-medium Wi-Fi cells
// read pairwise losses from the shared matrix too. Frequencies are not
// part of the matrix, so one snapshot serves every channel separation.
var wifiPairSnap = sync.OnceValue(func() *topology.Snapshot {
	return topology.SnapshotFromSpecs([]topology.NetworkSpec{
		{
			Sink:    topology.NodeSpec{Pos: phy.Position{X: 0, Y: 0}},
			Senders: []topology.NodeSpec{{Pos: phy.Position{X: 1, Y: 0}}},
		},
		{
			Sink:    topology.NodeSpec{Pos: phy.Position{X: 0, Y: 2}},
			Senders: []topology.NodeSpec{{Pos: phy.Position{X: 1, Y: 2}}},
		},
	}, phy.DefaultPathLoss())
})

// wifiPairThroughput measures link A's delivered packets with link B
// offset by sep Wi-Fi channels (sep = 99 isolates link A).
func wifiPairThroughput(seed int64, sep int, opts Options) float64 {
	k, m := newCell(opts, seed,
		medium.WithRejection(net80211.OverlapCurve{}),
		medium.WithFadingSigma(1),
		medium.WithStaticFadingSigma(0),
		medium.WithLossProvider(wifiPairSnap()))
	sndA := net80211.NewStation(k, m, "a.tx", phy.Position{X: 0, Y: 0}, 1, 0)
	rcvA := net80211.NewStation(k, m, "a.rx", phy.Position{X: 1, Y: 0}, 1, 0)
	rcvA.WatchSrc = 0 // count only link A's own packets
	sndA.StartSaturated(500)
	if sep <= 11 {
		sndB := net80211.NewStation(k, m, "b.tx", phy.Position{X: 0, Y: 2}, 1+sep, 0)
		net80211.NewStation(k, m, "b.rx", phy.Position{X: 1, Y: 2}, 1+sep, 0)
		sndB.StartSaturated(500)
	}
	k.RunFor(opts.Measure)
	return float64(rcvA.Delivered) / opts.Measure.Seconds()
}

// wpanPairSnap is the 802.15.4 half of the Fig. 2 geometry: sink-first
// spec order matches testbed attach order, and the one-link cells
// (sep = 99) still index the first two nodes of the matrix correctly.
var wpanPairSnap = sync.OnceValue(func() *topology.Snapshot {
	return topology.SnapshotFromSpecs([]topology.NetworkSpec{
		{
			Sink:    topology.NodeSpec{Pos: phy.Position{X: 1, Y: 0}},
			Senders: []topology.NodeSpec{{Pos: phy.Position{X: 0, Y: 0}}},
		},
		{
			Sink:    topology.NodeSpec{Pos: phy.Position{X: 1, Y: 2}},
			Senders: []topology.NodeSpec{{Pos: phy.Position{X: 0, Y: 2}}},
		},
	}, phy.DefaultPathLoss())
})

// wpanPairThroughput measures an 802.15.4 link's goodput with a second
// link offset by sep ZigBee channels (5 MHz each); sep = 99 isolates it.
func wpanPairThroughput(seed int64, sep int, opts Options) float64 {
	tb := newCellTestbed(opts, testbed.Options{
		Seed: seed, StaticFadingSigma: -1, Topology: wpanPairSnap(),
	})
	specA := topology.NetworkSpec{
		Freq:    2412,
		Sink:    topology.NodeSpec{Pos: phy.Position{X: 1, Y: 0}},
		Senders: []topology.NodeSpec{{Pos: phy.Position{X: 0, Y: 0}}},
	}
	a := tb.AddNetwork(specA, testbed.NetworkConfig{})
	if sep <= 11 {
		specB := topology.NetworkSpec{
			Freq:    2412 + phy.MHz(5*sep),
			Sink:    topology.NodeSpec{Pos: phy.Position{X: 1, Y: 2}},
			Senders: []topology.NodeSpec{{Pos: phy.Position{X: 0, Y: 2}}},
		}
		tb.AddNetwork(specB, testbed.NetworkConfig{})
	}
	tb.Run(time.Second, opts.Measure)
	return a.Throughput(tb.MeasuredDuration())
}

// Fig4Row is one CFD point of the concurrency probe.
type Fig4Row struct {
	CFD          phy.MHz
	NormalCPRR   float64
	AttackerCPRR float64
}

// Fig4Result is the collided-packet receive rate experiment.
type Fig4Result struct {
	Rows []Fig4Row
}

// Fig4 regenerates Fig. 4: two crossed links with carrier sense disabled;
// the attacker sends a near-back-to-back stream (one packet every 3 ms) so
// every packet of the normal sender collides. CPRR is reported for both
// links per CFD ∈ {5, 4, 3, 2, 1} MHz. Shape: ~100 % at >= 4 MHz, ~97 %
// at 3 MHz, ~70 % at 2 MHz, < 20 % at 1 MHz.
func Fig4(opts Options) (Fig4Result, *Table) {
	opts = opts.withDefaults()

	cfds := []phy.MHz{5, 4, 3, 2, 1}
	type pair struct{ Normal, Attacker float64 }
	grid := runGrid(opts, len(cfds), func(cell int, seed int64) pair {
		n, a := cprrRun(seed, cfds[cell], opts)
		return pair{Normal: n, Attacker: a}
	})

	var res Fig4Result
	for i, cfd := range cfds {
		var normal, attacker float64
		for _, p := range grid[i] {
			normal += p.Normal
			attacker += p.Attacker
		}
		res.Rows = append(res.Rows, Fig4Row{
			CFD:          cfd,
			NormalCPRR:   normal / float64(opts.Seeds),
			AttackerCPRR: attacker / float64(opts.Seeds),
		})
	}

	t := &Table{
		Title:   "Fig 4: Collided packet receive rate vs channel frequency distance",
		Columns: []string{"CFD (MHz)", "normal sender CPRR", "attacker CPRR"},
	}
	for _, r := range res.Rows {
		t.AddRow(f0(float64(r.CFD)), pct(r.NormalCPRR), pct(r.AttackerCPRR))
	}
	return res, t
}

// cprrSnap is the crossed-link Fig. 3 geometry; the attacker's channel
// offset varies per cell but the placements never do.
var cprrSnap = sync.OnceValue(func() *topology.Snapshot {
	return topology.SnapshotFromSpecs([]topology.NetworkSpec{
		{
			Sink:    topology.NodeSpec{Pos: phy.Position{X: 0.5, Y: 0}},
			Senders: []topology.NodeSpec{{Pos: phy.Position{X: -0.5, Y: 0}}},
		},
		{
			Sink:    topology.NodeSpec{Pos: phy.Position{X: -0.5, Y: 1}},
			Senders: []topology.NodeSpec{{Pos: phy.Position{X: 0.5, Y: 1}}},
		},
	}, phy.DefaultPathLoss())
})

// cprrRun builds the crossed-link geometry of Fig. 3: the normal link and
// the attacker link intersect so each receiver is 1 m from both its own
// sender and the foreign one (equal received power), carrier sense off.
// Static fading is disabled: the probe measures the rejection curve, not a
// particular shadowing draw.
func cprrRun(seed int64, cfd phy.MHz, opts Options) (normalCPRR, attackerCPRR float64) {
	tb := newCellTestbed(opts, testbed.Options{
		Seed: seed, StaticFadingSigma: -1, Topology: cprrSnap(),
	})
	normal := tb.AddNetwork(topology.NetworkSpec{
		Freq:    2460,
		Sink:    topology.NodeSpec{Pos: phy.Position{X: 0.5, Y: 0}},
		Senders: []topology.NodeSpec{{Pos: phy.Position{X: -0.5, Y: 0}}},
	}, testbed.NetworkConfig{Scheme: testbed.SchemeNoCarrierSense})
	attacker := tb.AddNetwork(topology.NetworkSpec{
		Freq:    2460 + cfd,
		Sink:    topology.NodeSpec{Pos: phy.Position{X: -0.5, Y: 1}},
		Senders: []topology.NodeSpec{{Pos: phy.Position{X: 0.5, Y: 1}}},
	}, testbed.NetworkConfig{
		Scheme: testbed.SchemeNoCarrierSense,
		// One packet every 3 ms at ~2.9 ms airtime: ~96 % duty cycle, so
		// every normal-sender packet is collided (Fig. 3).
		Period:  3 * time.Millisecond,
		Payload: 73,
	})
	tb.Run(time.Second, opts.Measure)
	return normal.Stats().CPRR(), attacker.Stats().CPRR()
}
