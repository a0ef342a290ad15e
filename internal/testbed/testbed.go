// Package testbed assembles full experiments: networks of saturated
// senders reporting to sinks over the simulated medium, with a choice of
// CCA scheme per network (fixed ZigBee threshold, DCN, or carrier sense
// disabled), and per-network statistics collection. It is the simulated
// counterpart of the paper's 35-mote MicaZ deployment.
package testbed

import (
	"fmt"
	"strconv"
	"time"

	"nonortho/internal/trace"

	"nonortho/internal/dcn"
	"nonortho/internal/frame"
	"nonortho/internal/mac"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/radio"
	"nonortho/internal/recovery"
	"nonortho/internal/sim"
	"nonortho/internal/stats"
	"nonortho/internal/topology"
)

// Scheme selects a network's channel-access policy.
type Scheme int

// The paper's three schemes.
const (
	// SchemeFixed is the default ZigBee design: CSMA with a fixed CCA
	// threshold.
	SchemeFixed Scheme = iota + 1
	// SchemeDCN runs the CCA-Adjustor on every node of the network.
	SchemeDCN
	// SchemeNoCarrierSense disables CCA entirely (the concurrency-probe
	// "attacker" mode of Section III-B).
	SchemeNoCarrierSense
	// SchemeOracle is the Section VII-C upper bound: a CCA that perfectly
	// differentiates co-channel from inter-channel interference.
	SchemeOracle
)

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case SchemeFixed:
		return "fixed"
	case SchemeDCN:
		return "dcn"
	case SchemeNoCarrierSense:
		return "no-cs"
	case SchemeOracle:
		return "oracle"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Options configures a testbed.
type Options struct {
	// Seed drives every random stream in the run.
	Seed int64
	// Payload is the default MSDU size in bytes (default 64, giving the
	// ~2.6 ms frames that land single-channel throughput in the paper's
	// 250-300 pkt/s range).
	Payload int
	// FadingSigma is the per-transmission RSSI jitter σ in dB (default 2).
	FadingSigma float64
	// StaticFadingSigma is the per-link shadowing σ in dB (default 3).
	// Set negative to disable entirely.
	StaticFadingSigma float64
	// PathLoss overrides the propagation model (default indoor
	// 48 dB @ 1 m, exponent 3.5).
	PathLoss phy.PathLossModel
	// Topology, when set, is the immutable shared snapshot the cell was
	// built from: its precomputed path-loss matrix is installed on the
	// medium so pairwise losses come from a read-only lookup instead of
	// being recomputed per cell. When PathLoss is unset the snapshot's
	// model becomes the medium's model; when both are set they must
	// describe the same propagation or the snapshot is ignored.
	Topology *topology.Snapshot
	// FarFieldBudget, when positive, enables the medium's far-field fold
	// over a near-field Topology snapshot: power sums skip certified-far
	// transmitters and add their worst-case aggregate to the noise floor
	// instead, with at most this many dB of sensed-power error (enforced —
	// the medium panics when the snapshot's loss bound cannot honour the
	// budget; see medium.WithFarField). Zero keeps sums exact. Requires a
	// near-field Topology whose model is in force.
	FarFieldBudget float64
	// Budget bounds the kernel work this testbed's cell may do (fired
	// events and/or virtual time). The zero value is unlimited. A cell
	// exceeding its budget panics with *sim.BudgetError, which the sweep
	// engine reports as a cell failure; completed cells are unaffected —
	// a budget that never trips changes no result.
	Budget sim.Budget
}

func (o Options) withDefaults() Options {
	if o.Payload == 0 {
		o.Payload = 64
	}
	if o.FadingSigma == 0 {
		o.FadingSigma = 2
	}
	if o.StaticFadingSigma == 0 {
		o.StaticFadingSigma = 3
	} else if o.StaticFadingSigma < 0 {
		o.StaticFadingSigma = 0
	}
	if o.PathLoss == nil {
		if o.Topology != nil {
			o.PathLoss = o.Topology.Model()
		} else {
			o.PathLoss = phy.DefaultPathLoss()
		}
	}
	return o
}

// NetworkConfig tunes one network added to the testbed.
type NetworkConfig struct {
	// Scheme is the channel-access policy (default SchemeFixed).
	Scheme Scheme
	// CCAThreshold is the fixed/initial threshold (default -77 dBm).
	CCAThreshold phy.DBm
	// Payload overrides the testbed default for this network's frames.
	Payload int
	// Period spaces transmissions at a fixed interval; zero means
	// saturated traffic.
	Period time.Duration
	// DCN overrides the Adjustor parameters when Scheme is SchemeDCN.
	DCN dcn.Config
}

func (c NetworkConfig) withDefaults(tb *Testbed) NetworkConfig {
	if c.Scheme == 0 {
		c.Scheme = SchemeFixed
	}
	if c.CCAThreshold == 0 {
		c.CCAThreshold = phy.DefaultCCAThreshold
	}
	if c.Payload == 0 {
		c.Payload = tb.opts.Payload
	}
	return c
}

// Node is one mote: radio + MAC (+ Adjustor under DCN).
type Node struct {
	Radio    *radio.Radio
	MAC      *mac.MAC
	Adjustor *dcn.Adjustor
}

// Network is one channel's worth of nodes plus its measurement state.
type Network struct {
	// Freq is the channel center frequency.
	Freq phy.MHz
	// Senders and Sink are the network's nodes.
	Senders []*Node
	Sink    *Node
	// Config records how the network was built.
	Config NetworkConfig

	tb *Testbed
	// link accumulates counters while the testbed is measuring.
	link stats.Link
	// errFractions collects the error-bit fraction of CRC-failed sink
	// receptions (Fig. 29) and feeds the recovery model.
	errFractions stats.Distribution
	// recoverable counts CRC-failed receptions within the recovery budget.
	recoverable int
	recov       *recovery.Scheme
}

// Stats returns the counters accumulated during the measurement window.
func (n *Network) Stats() stats.Link { return n.link }

// Recoverable returns the number of CRC-failed sink receptions that the
// partial-packet-recovery model could repair.
func (n *Network) Recoverable() int { return n.recoverable }

// ErrorFractions exposes the error-bit-fraction distribution of CRC-failed
// receptions at the sink.
func (n *Network) ErrorFractions() *stats.Distribution { return &n.errFractions }

// Throughput is the measured sink goodput in packets per second.
func (n *Network) Throughput(measured time.Duration) float64 {
	return n.link.Throughput(measured)
}

// Testbed owns the kernel, medium and networks of one experiment run.
type Testbed struct {
	Kernel *sim.Kernel
	Medium *medium.Medium

	// recorder, when non-nil, receives MAC/DCN events of every network
	// added after EnableTrace.
	recorder *trace.Recorder

	opts      Options
	networks  []*Network
	nextAddr  frame.Address
	measuring bool
	measured  time.Duration
	started   bool
}

// New builds an empty testbed.
func New(opts Options) *Testbed {
	opts = opts.withDefaults()
	mopts := []medium.Option{
		medium.WithFadingSigma(opts.FadingSigma),
		medium.WithStaticFadingSigma(opts.StaticFadingSigma),
		medium.WithPathLoss(opts.PathLoss),
	}
	// The snapshot's matrix is only valid under the model it was computed
	// with; a conflicting explicit PathLoss wins and the matrix is skipped.
	if opts.Topology != nil && opts.PathLoss == opts.Topology.Model() {
		mopts = append(mopts, medium.WithLossProvider(opts.Topology))
		if opts.FarFieldBudget > 0 {
			mopts = append(mopts, medium.WithFarField(opts.FarFieldBudget))
		}
	}
	k := sim.NewKernel(opts.Seed)
	k.SetBudget(opts.Budget)
	m := medium.New(k, mopts...)
	return &Testbed{Kernel: k, Medium: m, opts: opts, nextAddr: 1}
}

// Close is a no-op: a testbed holds nothing beyond garbage-collected
// memory. Callers that end a cell with it may keep doing so.
func (tb *Testbed) Close() {}

// EnableTrace attaches an event recorder with the given capacity. Call it
// before AddNetwork; networks created earlier are not instrumented.
func (tb *Testbed) EnableTrace(capacity int) *trace.Recorder {
	tb.recorder = trace.NewRecorder(capacity)
	return tb.recorder
}

// Networks returns the networks in creation order.
func (tb *Testbed) Networks() []*Network { return tb.networks }

// MeasuredDuration reports the total measurement time accumulated so far.
func (tb *Testbed) MeasuredDuration() time.Duration { return tb.measured }

// AddNetwork instantiates the nodes of spec with the given configuration.
func (tb *Testbed) AddNetwork(spec topology.NetworkSpec, cfg NetworkConfig) *Network {
	cfg = cfg.withDefaults(tb)
	n := &Network{Freq: spec.Freq, Config: cfg, tb: tb, recov: recovery.New(0)}

	n.Sink = tb.newNode(spec.Sink, spec.Freq, cfg)
	for _, s := range spec.Senders {
		n.Senders = append(n.Senders, tb.newNode(s, spec.Freq, cfg))
	}
	tb.wire(n)
	if tb.recorder != nil {
		tb.instrument(n)
	}
	tb.networks = append(tb.networks, n)
	return n
}

// instrument chains trace recording into a network's callbacks.
func (tb *Testbed) instrument(n *Network) {
	rec := tb.recorder
	for _, s := range n.Senders {
		s := s
		node := int(s.Radio.Address())
		prevSent := s.MAC.OnSent
		s.MAC.OnSent = func(f *frame.Frame) {
			if prevSent != nil {
				prevSent(f)
			}
			rec.Record(trace.Event{
				At: tb.Kernel.Now(), Kind: trace.KindTxEnd, Node: node, Seq: int(f.Seq),
			})
		}
		prevDropped := s.MAC.OnDropped
		s.MAC.OnDropped = func(f *frame.Frame) {
			if prevDropped != nil {
				prevDropped(f)
			}
			rec.Record(trace.Event{
				At: tb.Kernel.Now(), Kind: trace.KindDrop, Node: node, Seq: int(f.Seq),
			})
		}
		if s.Adjustor != nil {
			s.Adjustor.OnThreshold = func(th phy.DBm) {
				rec.Record(trace.Event{
					At: tb.Kernel.Now(), Kind: trace.KindThreshold, Node: node, Value: float64(th),
				})
			}
		}
	}
	sinkNode := int(n.Sink.Radio.Address())
	prev := n.Sink.MAC.OnOverhear
	n.Sink.MAC.OnOverhear = func(r radio.Reception) {
		if prev != nil {
			prev(r)
		}
		kind := trace.KindRxOK
		if !r.CRCOK {
			kind = trace.KindRxCorrupt
		}
		rec.Record(trace.Event{
			At: tb.Kernel.Now(), Kind: kind, Node: sinkNode,
			Seq: int(r.Frame.Seq), Value: float64(r.RSSI),
		})
	}
}

func (tb *Testbed) newNode(spec topology.NodeSpec, freq phy.MHz, cfg NetworkConfig) *Node {
	addr := tb.nextAddr
	tb.nextAddr++
	rcfg := radio.Config{
		Pos:          spec.Pos,
		Freq:         freq,
		TxPower:      spec.TxPower,
		CCAThreshold: cfg.CCAThreshold,
		Address:      addr,
	}
	r := radio.New(tb.Kernel, tb.Medium, rcfg)
	var policy mac.CCAPolicy = mac.ThresholdCCA{}
	switch cfg.Scheme {
	case SchemeNoCarrierSense:
		policy = mac.DisabledCCA{}
	case SchemeOracle:
		policy = mac.OracleDiscriminatingCCA{}
	}
	m := mac.New(tb.Kernel, r, mac.Config{CCA: policy})
	node := &Node{Radio: r, MAC: m}
	if cfg.Scheme == SchemeDCN {
		node.Adjustor = dcn.Attach(tb.Kernel, m, cfg.DCN)
	}
	return node
}

// wire connects the statistics callbacks of a network's nodes.
func (tb *Testbed) wire(n *Network) {
	for _, s := range n.Senders {
		s.MAC.OnSent = func(*frame.Frame) {
			if tb.measuring {
				n.link.Sent++
			}
		}
		s.MAC.OnDropped = func(*frame.Frame) {
			if tb.measuring {
				n.link.AccessFailures++
			}
		}
	}
	prev := n.Sink.MAC.OnOverhear
	n.Sink.MAC.OnOverhear = func(r radio.Reception) {
		if prev != nil {
			prev(r)
		}
		if !tb.measuring {
			return
		}
		// Only count traffic addressed to this sink: overheard frames of
		// other links sharing the channel are not this network's goodput.
		if r.Frame.Dst != n.Sink.Radio.Address() {
			return
		}
		if r.Collided {
			n.link.Collided++
			if r.CRCOK {
				n.link.CollidedOK++
			}
		}
		if r.CRCOK {
			n.link.Received++
			return
		}
		n.link.CRCFailed++
		n.errFractions.Observe(r.ErrorFraction())
		if n.recov.Recoverable(r) {
			n.recoverable++
		}
	}
}

// start launches traffic sources and DCN adjustors. Called once.
func (tb *Testbed) start() {
	if tb.started {
		return
	}
	tb.started = true
	for _, n := range tb.networks {
		for _, s := range n.Senders {
			tb.startSource(n, s)
			if s.Adjustor != nil {
				s.Adjustor.Start()
			}
		}
		if n.Sink.Adjustor != nil {
			n.Sink.Adjustor.Start()
		}
	}
}

// startSource drives one sender: saturated (refill on completion) or
// periodic. Every frame of the source shares one zeroed payload: no layer
// writes a payload (see frame.Frame.Payload), so a slice per frame would
// only be garbage.
func (tb *Testbed) startSource(n *Network, s *Node) {
	dst := n.Sink.Radio.Address()
	payload := make([]byte, n.Config.Payload)
	makeFrame := func() *frame.Frame {
		return &frame.Frame{
			Type:    frame.TypeData,
			Src:     s.Radio.Address(),
			Dst:     dst,
			Payload: payload,
		}
	}
	if n.Config.Period > 0 {
		tb.Kernel.NewTicker(n.Config.Period, func() { s.MAC.Send(makeFrame()) })
		return
	}
	// Saturated: keep two frames in the queue so the MAC never idles.
	refill := func() {
		for s.MAC.QueueLen() < 2 {
			if !s.MAC.Send(makeFrame()) {
				break
			}
		}
	}
	prevSent := s.MAC.OnSent
	s.MAC.OnSent = func(f *frame.Frame) {
		if prevSent != nil {
			prevSent(f)
		}
		refill()
	}
	prevDropped := s.MAC.OnDropped
	s.MAC.OnDropped = func(f *frame.Frame) {
		if prevDropped != nil {
			prevDropped(f)
		}
		refill()
	}
	refill()
}

// Run executes the experiment: warmup (sources running, stats gated off)
// followed by a measurement window. It can be called again to extend the
// measurement.
func (tb *Testbed) Run(warmup, measure time.Duration) {
	tb.start()
	if warmup > 0 {
		tb.measuring = false
		tb.Kernel.RunFor(warmup)
	}
	tb.measuring = true
	tb.Kernel.RunFor(measure)
	tb.measuring = false
	tb.measured += measure
}

// OverallThroughput sums sink goodput across all networks, in packets per
// second of measured time.
func (tb *Testbed) OverallThroughput() float64 {
	if tb.measured <= 0 {
		return 0
	}
	total := 0.0
	for _, n := range tb.networks {
		total += n.Throughput(tb.measured)
	}
	return total
}

// PerNetworkThroughput returns each network's goodput in creation order.
func (tb *Testbed) PerNetworkThroughput() []float64 {
	out := make([]float64, len(tb.networks))
	for i, n := range tb.networks {
		out[i] = n.Throughput(tb.measured)
	}
	return out
}

// NetworkLabel names a network the way the paper does: N0 is the middle
// channel, N1..N_k fan outwards. Here we simply report the index.
func NetworkLabel(i int) string { return "N" + strconv.Itoa(i) }
