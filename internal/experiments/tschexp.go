package experiments

import (
	"time"

	"nonortho/internal/frame"
	"nonortho/internal/phy"
	"nonortho/internal/tsch"
)

// TSCHRow is one hop-set's outcome.
type TSCHRow struct {
	HopSet        string
	Lanes         int
	DeliveredPerS float64
	DeliveryRatio float64
}

// TSCHResult is the channel-hopping extension.
type TSCHResult struct {
	Rows []TSCHRow
	// Gain is the non-orthogonal hop set's delivered-rate gain.
	Gain float64
}

// TSCH extends the paper's thesis to time-slotted channel hopping
// (802.15.4e-style): six always-on dedicated links want six parallel
// channel lanes per timeslot. The orthogonal hop set provides only four
// on the 15 MHz band, so two lane pairs collide every slot; the
// non-orthogonal CFD = 3 MHz set provides six. Shape: the non-orthogonal
// schedule delivers substantially more — non-orthogonality buys capacity
// in the hopping world exactly as it does for CSMA.
func TSCH(opts Options) (TSCHResult, *Table) {
	opts = opts.withDefaults()

	type seedSums struct{ Delivered, Generated float64 }
	run := func(hops []phy.MHz, offsets []int) (rate, ratio float64) {
		cells := runSeeds(opts, func(seed int64) seedSums {
			k, m := newCell(opts, seed)

			var cells []tsch.Cell
			for i := 0; i < 6; i++ {
				cells = append(cells, tsch.Cell{
					Slot:          0,
					ChannelOffset: offsets[i],
					Sender:        frame.Address(1 + 2*i),
					Receiver:      frame.Address(2 + 2*i),
				})
			}
			sched := tsch.Schedule{SlotframeLen: 1, HopSequence: hops, Cells: cells}
			nw, err := tsch.NewNetworkUnchecked(k, sched)
			if err != nil {
				panic(err)
			}
			senders := make([]*tsch.Node, 6)
			receivers := make([]*tsch.Node, 6)
			for i := 0; i < 6; i++ {
				senders[i] = nw.AddNode(m, frame.Address(1+2*i),
					phy.Position{X: 0, Y: 1.2 * float64(i)}, 0)
				receivers[i] = nw.AddNode(m, frame.Address(2+2*i),
					phy.Position{X: 1, Y: 1.2 * float64(i)}, 0)
			}
			// Saturated: keep every sender's queue topped up.
			k.NewTicker(10*time.Millisecond, func() {
				for i, snd := range senders {
					for snd.QueueLen() < 2 {
						snd.Send(&frame.Frame{
							Type: frame.TypeData,
							Src:  frame.Address(1 + 2*i), Dst: frame.Address(2 + 2*i),
							Payload: make([]byte, 32),
						})
					}
				}
			})
			nw.Start()
			k.RunFor(opts.Warmup)
			var sentBase, recvBase int
			for i := 0; i < 6; i++ {
				sentBase += senders[i].Sent()
				recvBase += receivers[i].Received()
			}
			k.RunFor(opts.Measure)
			var sentNow, recvNow int
			for i := 0; i < 6; i++ {
				sentNow += senders[i].Sent()
				recvNow += receivers[i].Received()
			}
			return seedSums{
				Delivered: float64(recvNow - recvBase),
				Generated: float64(sentNow - sentBase),
			}
		})
		var delivered, generated float64
		for _, c := range cells {
			delivered += c.Delivered
			generated += c.Generated
		}
		secs := float64(opts.Seeds) * opts.Measure.Seconds()
		if generated == 0 {
			return 0, 0
		}
		return delivered / secs, delivered / generated
	}

	orthRate, orthRatio := run([]phy.MHz{2458, 2463, 2468, 2473}, []int{0, 1, 2, 3, 0, 1})
	nonRate, nonRatio := run([]phy.MHz{2458, 2461, 2464, 2467, 2470, 2473},
		[]int{0, 1, 2, 3, 4, 5})

	res := TSCHResult{
		Rows: []TSCHRow{
			{HopSet: "orthogonal (4 lanes, CFD=5)", Lanes: 4, DeliveredPerS: orthRate, DeliveryRatio: orthRatio},
			{HopSet: "non-orthogonal (6 lanes, CFD=3)", Lanes: 6, DeliveredPerS: nonRate, DeliveryRatio: nonRatio},
		},
		Gain: nonRate/orthRate - 1,
	}

	t := &Table{
		Title:   "Extension: TSCH channel hopping — 6 dedicated links per timeslot on 15 MHz",
		Columns: []string{"hop set", "lanes", "delivered (pkt/s)", "delivery ratio"},
	}
	for _, r := range res.Rows {
		t.AddRow(r.HopSet, f0(float64(r.Lanes)), f1(r.DeliveredPerS), pct(r.DeliveryRatio))
	}
	t.AddRow("non-orthogonal gain", pct(res.Gain), "", "")
	return res, t
}
