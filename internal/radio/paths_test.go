package radio_test

import (
	"testing"
	"time"

	"nonortho/internal/phy"
	"nonortho/internal/radio"
	"nonortho/internal/sim"
	"nonortho/internal/testbed"
	"nonortho/internal/topology"
)

// TestReceptionPathsLiveOnDenseCell runs the Fig 19 pair, ZigBee (4
// channels at CFD 5, fixed CSMA) and DCN (6 channels at CFD 3), colocated
// and saturated, and requires the quiet bound, the zero cut and the
// bracket each to settle a share of the reception segments. A change that
// quietly routes every segment to the exact closed form keeps the golden
// bytes but fails here.
func TestReceptionPathsLiveOnDenseCell(t *testing.T) {
	for _, d := range []struct {
		name     string
		channels int
		cfd      phy.MHz
		scheme   testbed.Scheme
	}{
		{"zigbee", 4, 5, testbed.SchemeFixed},
		{"dcn", 6, 3, testbed.SchemeDCN},
	} {
		centers := make([]phy.MHz, d.channels)
		for i := range centers {
			centers[i] = 2458 + phy.MHz(i)*d.cfd
		}
		plan := phy.ChannelPlan{Start: 2458, Bandwidth: phy.MHz(d.channels-1) * d.cfd, CFD: d.cfd, Centers: centers}
		snap, err := topology.NewSnapshotNear(topology.Config{Plan: plan, Layout: topology.LayoutColocated}, sim.NewRNG(1), nil, 150)
		if err != nil {
			t.Fatal(err)
		}
		tb := testbed.New(testbed.Options{Seed: 1, Topology: snap})
		for _, spec := range snap.Networks() {
			tb.AddNetwork(spec, testbed.NetworkConfig{Scheme: d.scheme})
		}
		tb.Run(time.Second, time.Second)
		var quiet, cut, bracket, exact int
		for _, n := range tb.Networks() {
			for _, node := range append(n.Senders, n.Sink) {
				q, c, b, e := radio.SegmentPaths(node.Radio)
				quiet, cut, bracket, exact = quiet+q, cut+c, bracket+b, exact+e
			}
		}
		total := float64(quiet + cut + bracket + exact)
		t.Logf("%s: %.0f segments: quiet bound %.1f%%, zero cut %.1f%%, bracket %.1f%%, exact %.1f%%", d.name, total,
			100*float64(quiet)/total, 100*float64(cut)/total, 100*float64(bracket)/total, 100*float64(exact)/total)
		if quiet == 0 || cut == 0 || bracket == 0 {
			t.Errorf("%s: segments settled by quiet bound %d, zero cut %d, bracket %d; want each > 0", d.name, quiet, cut, bracket)
		}
	}
}
