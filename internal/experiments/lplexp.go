package experiments

import (
	"time"

	"nonortho/internal/frame"
	"nonortho/internal/lpl"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/radio"
	"nonortho/internal/sim"
	"nonortho/internal/topology"
)

// LPLRow is one wake-threshold policy's outcome.
type LPLRow struct {
	Policy           string
	Delivered        int
	FalseWakeupsPerS float64
	ReceiverMJPerS   float64
}

// LPLResult is the duty-cycling extension.
type LPLResult struct {
	Rows []LPLRow
	// EnergySavings is the adaptive receiver's energy reduction.
	EnergySavings float64
}

// LPL extends the paper's threshold-adaptation idea to preamble-sampling
// low-power listening. An LPL link on 2460 MHz carries one reading per
// second while two saturated CSMA networks run at ±3 MHz. The receiver's
// wake decision is an energy threshold:
//
//   - at the fixed -77 dBm, every sample finds neighbour-channel leakage
//     and wakes the radio for nothing (a false wakeup per check);
//   - a DCN-style threshold above the filtered foreign energy (and below
//     co-channel strobe RSSI) sleeps through the leakage and still
//     catches every strobe train.
//
// Shape: identical delivery, an order-of-magnitude fewer false wakeups,
// and a large receiver-energy saving.
func LPL(opts Options) (LPLResult, *Table) {
	opts = opts.withDefaults()

	type seedResult struct {
		Delivered         int
		FalsePerS, MjPerS float64
	}
	run := func(threshold phy.DBm) (delivered int, falsePerS, mjPerS float64) {
		cells := runSeeds(opts, func(seed int64) seedResult {
			k, m := newCell(opts, seed)

			// The LPL link.
			sndRadio := radio.New(k, m, radio.Config{
				Pos: phy.Position{X: 0}, Freq: 2460, TxPower: 0,
				CCAThreshold: phy.DefaultCCAThreshold, Address: 1,
			})
			rcvRadio := radio.New(k, m, radio.Config{
				Pos: phy.Position{X: 1}, Freq: 2460, TxPower: 0,
				CCAThreshold: phy.DefaultCCAThreshold, Address: 2,
			})
			snd := lpl.NewSender(k, sndRadio, lpl.DefaultCheckInterval)
			rcv := lpl.NewReceiver(k, rcvRadio, lpl.DefaultCheckInterval, threshold)
			rcv.Start()

			// Two saturated blasters on the non-orthogonal neighbours,
			// ~2.5 m away: leakage ≈ -75 dBm at the receiver.
			for i, f := range []phy.MHz{2457, 2463} {
				spec := topology.NetworkSpec{
					Freq: f,
					Sink: topology.NodeSpec{Pos: phy.Position{X: 3.5, Y: 2 * float64(i)}},
					Senders: []topology.NodeSpec{
						{Pos: phy.Position{X: 2.8, Y: 2 * float64(i)}},
						{Pos: phy.Position{X: 4.2, Y: 2 * float64(i)}},
					},
				}
				addNeighborNetwork(k, m, spec)
			}

			// One reading per second.
			k.NewTicker(time.Second, func() { snd.Send(2, make([]byte, 32)) })

			k.RunFor(opts.Warmup + opts.Measure)
			secs := (opts.Warmup + opts.Measure).Seconds()
			return seedResult{
				Delivered: rcv.Received(),
				FalsePerS: float64(rcv.FalseWakeups()) / secs,
				MjPerS:    rcv.Radio().EnergyReport().Millijoules / secs,
			}
		})
		for _, c := range cells {
			delivered += c.Delivered
			falsePerS += c.FalsePerS
			mjPerS += c.MjPerS
		}
		n := float64(opts.Seeds)
		return delivered, falsePerS / n, mjPerS / n
	}

	naiveDelivered, naiveFalse, naiveMJ := run(phy.DefaultCCAThreshold)
	adaptDelivered, adaptFalse, adaptMJ := run(-50)

	res := LPLResult{
		Rows: []LPLRow{
			{Policy: "fixed -77 dBm wake threshold", Delivered: naiveDelivered,
				FalseWakeupsPerS: naiveFalse, ReceiverMJPerS: naiveMJ},
			{Policy: "adaptive (DCN-style) threshold", Delivered: adaptDelivered,
				FalseWakeupsPerS: adaptFalse, ReceiverMJPerS: adaptMJ},
		},
	}
	if naiveMJ > 0 {
		res.EnergySavings = 1 - adaptMJ/naiveMJ
	}

	t := &Table{
		Title:   "Extension: low-power listening under non-orthogonal neighbours",
		Columns: []string{"wake policy", "delivered", "false wakeups/s", "receiver mJ/s"},
	}
	for _, r := range res.Rows {
		t.AddRow(r.Policy, f0(float64(r.Delivered)), f1(r.FalseWakeupsPerS), f2(r.ReceiverMJPerS))
	}
	t.AddRow("receiver energy saved", pct(res.EnergySavings), "", "")
	return res, t
}

// addNeighborNetwork spins up a small saturated CSMA network without the
// full testbed (no statistics needed — it only exists to leak energy).
func addNeighborNetwork(k *sim.Kernel, m *medium.Medium, spec topology.NetworkSpec) {
	sinkRadio := radio.New(k, m, radio.Config{
		Pos: spec.Sink.Pos, Freq: spec.Freq, TxPower: 0,
		CCAThreshold: phy.DefaultCCAThreshold,
		Address:      frame.Address(1000 + int(spec.Freq)),
	})
	for i, snd := range spec.Senders {
		r := radio.New(k, m, radio.Config{
			Pos: snd.Pos, Freq: spec.Freq, TxPower: 0,
			CCAThreshold: phy.DefaultCCAThreshold,
			Address:      frame.Address(2000 + 10*int(spec.Freq) + i),
		})
		var blast func()
		blast = func() {
			f := &frame.Frame{Type: frame.TypeData,
				Dst: sinkRadio.Address(), Src: r.Address(),
				Payload: make([]byte, 64)}
			if tx, err := r.Transmit(f); err == nil {
				k.At(tx.End, blast)
			} else {
				k.After(time.Millisecond, blast)
			}
		}
		blast()
	}
}
