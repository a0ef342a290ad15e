package testbed

import (
	"testing"
	"time"

	"nonortho/internal/phy"
	"nonortho/internal/sim"
	"nonortho/internal/topology"
)

// benchSpec builds one network of nSenders at an X offset, deterministic
// and import-cycle-free.
func benchSpec(freq phy.MHz, nSenders int, off float64) topology.NetworkSpec {
	spec := topology.NetworkSpec{
		Freq: freq,
		Sink: topology.NodeSpec{Pos: phy.Position{X: off}},
	}
	for i := 0; i < nSenders; i++ {
		spec.Senders = append(spec.Senders, topology.NodeSpec{
			Pos: phy.Position{X: off + 0.5 + 0.2*float64(i), Y: 0.6 * float64(i%2)},
		})
	}
	return spec
}

// BenchmarkSimulatedSecond measures how fast the full stack simulates one
// virtual second of a six-network saturated deployment — the harness's
// core cost metric (virtual-time seconds per wall-clock second).
func BenchmarkSimulatedSecond(b *testing.B) {
	tb := New(Options{Seed: 1})
	for i := 0; i < 6; i++ {
		tb.AddNetwork(benchSpec(2458+phy.MHz(3*i), 4, 0.9*float64(i)), NetworkConfig{})
	}
	tb.Run(time.Second, 0) // warm the sources
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Run(0, time.Second)
	}
	b.ReportMetric(tb.OverallThroughput(), "pkt/s")
}

// BenchmarkCellSetup measures standing up one six-network experiment cell
// and simulating its first 100 virtual milliseconds — the phase where
// every node pair's link budget is created — two ways: regenerating the
// topology from scratch (what every cell paid before shared snapshots)
// versus instantiating from a prebuilt snapshot, where placements and the
// path-loss matrix are computed once per (configuration, seed) and shared
// read-only across cells.
func BenchmarkCellSetup(b *testing.B) {
	cfg := topology.Config{
		Plan: phy.ChannelPlan{
			Start: 2458, Bandwidth: 15, CFD: 3,
			Centers: []phy.MHz{2458, 2461, 2464, 2467, 2470, 2473},
		},
		Layout: topology.LayoutColocated,
	}
	const warm = 100 * time.Millisecond
	b.Run("fresh-generate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			nets, err := topology.Generate(cfg, sim.NewRNG(1))
			if err != nil {
				b.Fatal(err)
			}
			tb := New(Options{Seed: 1})
			for _, spec := range nets {
				tb.AddNetwork(spec, NetworkConfig{})
			}
			tb.Run(warm, 0)
		}
	})
	b.Run("shared-snapshot", func(b *testing.B) {
		snap, err := topology.NewSnapshot(cfg, sim.NewRNG(1), nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tb := New(Options{Seed: 1, Topology: snap})
			for _, spec := range snap.Networks() {
				tb.AddNetwork(spec, NetworkConfig{})
			}
			tb.Run(warm, 0)
		}
	})
}

// BenchmarkSimulatedSecondDCN is the same with every network running the
// CCA-Adjustor, measuring DCN's bookkeeping overhead.
func BenchmarkSimulatedSecondDCN(b *testing.B) {
	tb := New(Options{Seed: 1})
	for i := 0; i < 6; i++ {
		tb.AddNetwork(benchSpec(2458+phy.MHz(3*i), 4, 0.9*float64(i)), NetworkConfig{Scheme: SchemeDCN})
	}
	tb.Run(2*time.Second, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Run(0, time.Second)
	}
	b.ReportMetric(tb.OverallThroughput(), "pkt/s")
}
