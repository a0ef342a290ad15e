package experiments

import (
	"nonortho/internal/net80211"
	"nonortho/internal/phy"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// CoexistenceRow is one (design, Wi-Fi state) cell.
type CoexistenceRow struct {
	Design  string
	WiFi    bool
	Total   float64
	LossPct float64 // throughput lost to the Wi-Fi interferer
}

// CoexistenceResult backs the Wi-Fi coexistence extension.
type CoexistenceResult struct {
	Rows []CoexistenceRow
	// ZigBeeLoss and DCNLoss are each design's fractional throughput loss
	// under the interferer.
	ZigBeeLoss float64
	DCNLoss    float64
}

// Coexistence is an extension to the related-work concern the paper cites
// from TMCP: "interferences caused by other wireless networks". A bursty
// 802.11 cell on Wi-Fi channel 11 (2462 MHz, 22 MHz wide) overlaps the
// WSN band. The fixed -77 dBm design freezes whenever the Wi-Fi burst is
// on the air (its wideband energy reads as a busy channel everywhere),
// while DCN's threshold — anchored to co-channel packet RSSI, which the
// Wi-Fi signal never contributes to — rises above the foreign energy and
// keeps transmitting through it. Shape: both designs lose throughput to
// Wi-Fi, but the fixed design loses much more.
func Coexistence(opts Options) (CoexistenceResult, *Table) {
	opts = opts.withDefaults()

	// Cells: (design, Wi-Fi state) in the table's row order.
	variants := []struct{ dcnOn, wifi bool }{
		{false, false}, {false, true}, {true, false}, {true, true},
	}
	// All four (design, Wi-Fi) cells of a seed share one topology
	// snapshot. The Wi-Fi interferer attaches to the medium beyond the
	// snapshot's node set; its pairwise losses fall back to the medium's
	// own model via the snapshot's position check.
	topos := snapshotSeeds(opts, topology.Config{
		Plan:   evalPlan(6, 3),
		Layout: topology.LayoutColocated,
	})
	grid := runGrid(opts, len(variants), func(cell int, seed int64) float64 {
		v := variants[cell]
		snap := topos.at(seed)
		tb := newCellTestbed(opts, testbed.Options{Seed: seed, Topology: snap})
		scheme := testbed.SchemeFixed
		if v.dcnOn {
			scheme = testbed.SchemeDCN
		}
		for _, spec := range snap.Networks() {
			tb.AddNetwork(spec, testbed.NetworkConfig{Scheme: scheme})
		}
		if v.wifi {
			// A busy Wi-Fi cell 5 m away at +15 dBm on channel 11
			// (2462 MHz): its in-band share arrives well above the
			// -77 dBm CCA default across the whole WSN band.
			intf := net80211.NewInterferer(tb.Kernel, tb.Medium,
				phy.Position{X: 5, Y: 5}, 11, 15)
			intf.Start()
		}
		tb.Run(opts.Warmup, opts.Measure)
		return tb.OverallThroughput()
	})
	n := float64(opts.Seeds)
	zigOff := sum(grid[0]) / n
	zigOn := sum(grid[1]) / n
	dcnOff := sum(grid[2]) / n
	dcnOn := sum(grid[3]) / n

	res := CoexistenceResult{
		Rows: []CoexistenceRow{
			{Design: "ZigBee (fixed -77 dBm)", WiFi: false, Total: zigOff},
			{Design: "ZigBee (fixed -77 dBm)", WiFi: true, Total: zigOn, LossPct: 1 - zigOn/zigOff},
			{Design: "DCN (CFD=3)", WiFi: false, Total: dcnOff},
			{Design: "DCN (CFD=3)", WiFi: true, Total: dcnOn, LossPct: 1 - dcnOn/dcnOff},
		},
		ZigBeeLoss: 1 - zigOn/zigOff,
		DCNLoss:    1 - dcnOn/dcnOff,
	}

	t := &Table{
		Title:   "Extension: Wi-Fi coexistence — a bursty 802.11 cell on channel 11 over the WSN band",
		Columns: []string{"design", "Wi-Fi", "total (pkt/s)", "loss"},
	}
	for _, r := range res.Rows {
		wifi := "off"
		if r.WiFi {
			wifi = "on"
		}
		loss := ""
		if r.WiFi {
			loss = pct(r.LossPct)
		}
		t.AddRow(r.Design, wifi, f0(r.Total), loss)
	}
	return res, t
}
