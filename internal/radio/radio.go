// Package radio models a CC2420-class IEEE 802.15.4 transceiver: a state
// machine with clear-channel assessment against a programmable threshold,
// an RSSI register, preamble lock-on, and per-segment interference
// integration that yields both packet verdicts and bit-error statistics.
//
// The model captures the property the paper's design rests on: the
// receiver can only synchronise to packets on its own channel. Energy from
// other channels (even 1 MHz away) is never decoded — it enters the SINR
// as filtered interference only.
package radio

import (
	"fmt"
	"math"

	"nonortho/internal/frame"
	"nonortho/internal/medium"
	"nonortho/internal/phy"
	"nonortho/internal/sim"
)

// State is the transceiver state.
type State int

// Radio states.
const (
	StateOff State = iota + 1
	StateIdle
	StateRX
	StateTX
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateOff:
		return "off"
	case StateIdle:
		return "idle"
	case StateRX:
		return "rx"
	case StateTX:
		return "tx"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// bitPeriod is the duration of one bit at 250 kbps.
const bitPeriod = 4 * sim.Microsecond

// Reception describes a frame whose preamble the radio captured, whether or
// not it finally passed the CRC.
type Reception struct {
	// Frame is the MAC frame carried by the transmission.
	Frame *frame.Frame
	// RSSI is the received signal strength the radio records for the
	// packet, as the CC2420 stamps into the RX FIFO.
	RSSI phy.DBm
	// BitErrors is the number of corrupted MPDU bits.
	BitErrors int
	// TotalBits is the MPDU size in bits.
	TotalBits int
	// CRCOK reports whether the frame decoded cleanly.
	CRCOK bool
	// Collided reports whether any interference above the noise floor
	// overlapped the reception.
	Collided bool
	// Start and End bound the reception interval.
	Start, End sim.Time
}

// ErrorFraction is the proportion of corrupted bits, the quantity of the
// paper's Fig. 29.
func (r Reception) ErrorFraction() float64 {
	if r.TotalBits == 0 {
		return 0
	}
	return float64(r.BitErrors) / float64(r.TotalBits)
}

// Config parameterises a radio.
type Config struct {
	// Pos is the antenna position.
	Pos phy.Position
	// Freq is the channel center frequency the radio is tuned to.
	Freq phy.MHz
	// TxPower is the transmit power.
	TxPower phy.DBm
	// CCAThreshold is the programmable clear-channel threshold; the
	// CC2420/ZigBee default is -77 dBm.
	CCAThreshold phy.DBm
	// Address is the node's short address.
	Address frame.Address
	// CaptureMargin enables message-in-message capture when positive: a
	// co-channel packet arriving at least this many dB above the one
	// being received steals the lock (the weaker frame is lost). Zero
	// disables capture, the conservative default.
	CaptureMargin phy.DBm
}

// RegisterStats counts anomalous interactions with the CCA threshold
// register — the observability the fault-injection subsystem relies on.
type RegisterStats struct {
	// OutOfRangeWrites counts SetCCAThreshold calls whose value had to be
	// clamped into the CC2420 programmable range.
	OutOfRangeWrites int
	// IgnoredWrites counts writes silently dropped while the register was
	// stuck (fault injection).
	IgnoredWrites int
}

// Radio is one transceiver attached to a medium. Single-threaded, like the
// rest of the simulation.
type Radio struct {
	kernel *sim.Kernel
	medium *medium.Medium
	id     int
	cfg    Config
	state  State
	rng    *sim.RNG

	// rssiOffset is a calibration error added to every measured power
	// (sensed energy and reported packet RSSI). It shifts what the radio
	// *reads*, never the physics: SINR integration uses true powers.
	rssiOffset phy.DBm
	// ccaStuck, when set, makes the CCA threshold register ignore writes —
	// the stuck-register fault model.
	ccaStuck bool
	regStats RegisterStats

	rx     *receptionState
	ownTx  *medium.Transmission
	energy energyMeter

	// rxBuf backs rx: the state never escapes a reception (receivers get a
	// Reception value), so one embedded buffer per radio replaces a heap
	// allocation per lock-on.
	rxBuf receptionState

	// OnReceive is invoked for every co-channel frame whose preamble was
	// captured, including CRC failures and frames addressed elsewhere —
	// the promiscuous view the DCN CCA-Adjustor needs.
	OnReceive func(Reception)
	// OnTxDone is invoked when the radio's own transmission leaves the air.
	OnTxDone func(*medium.Transmission)

	// segments counts closed reception segments by the path that settled
	// their bit errors.
	segments [numSegmentPaths]int
	// onSegment, when set, sees every closed segment's bit count,
	// interference and bit errors: the reception oracle's view.
	onSegment func(bits int, interf phy.DBm, errs int)
}

type receptionState struct {
	tx     *medium.Transmission
	signal phy.DBm
	// quiet is phy.QuietInterference(signal): segments whose interference
	// stays at or below it cannot take a bit error.
	quiet     phy.DBm
	bitErrors int
	segStart  sim.Time
	collided  bool
	carry     float64 // fractional bits not yet attributed to a segment
}

// segmentPath is the way closeSegment settled a segment's bit errors.
type segmentPath int

const (
	// pathQuiet: interference at or below the reception's quiet bound;
	// neither SINR nor BER is evaluated.
	pathQuiet segmentPath = iota
	// pathZeroCut: SINR at or above phy.ZeroBERCut; BER is not evaluated.
	pathZeroCut
	// pathBracket: no error, settled from the first draws against
	// phy.BERUpperBound.
	pathBracket
	// pathExact: the closed-form BER was evaluated.
	pathExact
	numSegmentPaths
)

// New attaches a radio to the medium in the idle state.
func New(k *sim.Kernel, m *medium.Medium, cfg Config) *Radio {
	r := &Radio{
		kernel: k,
		medium: m,
		cfg:    cfg,
		state:  StateIdle,
		rng:    k.Stream(fmt.Sprintf("radio.%d.bits", cfg.Address)),
	}
	// The hardware register cannot hold an out-of-range threshold, however
	// the radio was configured.
	r.cfg.CCAThreshold, _ = phy.ClampCCAThreshold(cfg.CCAThreshold)
	r.energy.account(r.state, cfg.TxPower, k.Now()) // start the meter
	r.id = m.Attach(r)
	return r
}

// Interest implements medium.InterestedListener: the events a radio's
// handlers can react to are fully determined by its state. Idle, it can
// only lock on to decodable co-channel preambles above the sensitivity
// floor; receiving, any landscape change anywhere splits the SINR
// integration segment, so it must hear everything. A transmitting or
// powered-off radio is deaf to all but its own transmission's completion
// (the source is always in its own delivery set) — but it deliberately
// declares the same band interest as idle rather than collapsing to
// ScopeOwn: delivering to a deaf radio is a guaranteed no-op (OnAir
// returns immediately in TX/Off), so band membership is a safe superset,
// and keeping it makes the per-packet idle↔TX transitions free for the
// medium's interest index — no bucket surgery on the hottest transition
// in a saturated cell. Only RX entry/exit and retunes move buckets.
func (r *Radio) Interest() medium.Interest {
	if r.state == StateRX {
		return medium.Interest{Scope: medium.ScopeAll}
	}
	return medium.Interest{Scope: medium.ScopeBand, Band: r.cfg.Freq, Floor: phy.Sensitivity}
}

// ID returns the radio's medium attachment ID.
func (r *Radio) ID() int { return r.id }

// Position implements medium.Listener.
func (r *Radio) Position() phy.Position { return r.cfg.Pos }

// State reports the transceiver state.
func (r *Radio) State() State { return r.state }

// Config returns a copy of the radio's configuration.
func (r *Radio) Config() Config { return r.cfg }

// Freq returns the tuned channel center frequency.
func (r *Radio) Freq() phy.MHz { return r.cfg.Freq }

// Address returns the radio's short address.
func (r *Radio) Address() frame.Address { return r.cfg.Address }

// SetCCAThreshold reprograms the CCA threshold register, the knob the DCN
// CCA-Adjustor turns. Values outside the CC2420 programmable range are
// clamped (and counted), so injected drift can never program an impossible
// threshold. While the register is stuck (fault injection) the write is
// silently ignored, exactly as the fault model prescribes.
func (r *Radio) SetCCAThreshold(t phy.DBm) {
	if r.ccaStuck {
		r.regStats.IgnoredWrites++
		return
	}
	v, clamped := phy.ClampCCAThreshold(t)
	if clamped {
		r.regStats.OutOfRangeWrites++
	}
	r.cfg.CCAThreshold = v
}

// CCAThreshold reads the current threshold register.
func (r *Radio) CCAThreshold() phy.DBm { return r.cfg.CCAThreshold }

// RegisterStats returns the CCA register write anomaly counters.
func (r *Radio) RegisterStats() RegisterStats { return r.regStats }

// SetCCAStuck injects (true) or clears (false) the stuck-register fault:
// while stuck, SetCCAThreshold writes are silently ignored.
func (r *Radio) SetCCAStuck(stuck bool) { r.ccaStuck = stuck }

// CCAStuck reports whether the stuck-register fault is active.
func (r *Radio) CCAStuck() bool { return r.ccaStuck }

// SetRSSICalibration injects an additive calibration error, in dB, into
// every power measurement the radio reports (sensed energy, packet RSSI).
// Zero restores a perfectly calibrated radio.
func (r *Radio) SetRSSICalibration(offset phy.DBm) { r.rssiOffset = offset }

// RSSICalibration returns the current calibration error.
func (r *Radio) RSSICalibration() phy.DBm { return r.rssiOffset }

// SetTxPower reprograms the transmit power.
func (r *Radio) SetTxPower(p phy.DBm) { r.cfg.TxPower = p }

// SetAddress rewrites the hardware address-recognition register — the
// operation a device performs after a PAN coordinator assigns it a short
// address during association.
func (r *Radio) SetAddress(a frame.Address) { r.cfg.Address = a }

// SetFreq retunes the synthesizer to a new channel center frequency — the
// operation a channel-hopping MAC performs at every slot boundary. Any
// reception in progress is lost (the PLL leaves the channel), matching
// hardware behaviour.
func (r *Radio) SetFreq(f phy.MHz) {
	if r.cfg.Freq == f {
		return
	}
	r.abortRx()
	r.cfg.Freq = f
	r.medium.SetInterest(r.id, r.Interest())
}

// SetOff powers the radio down, aborting any reception in progress. Used
// for failure injection.
func (r *Radio) SetOff() {
	r.abortRx()
	r.setState(StateOff)
}

// SetOn powers an off radio back to idle. No-op in any other state.
func (r *Radio) SetOn() {
	if r.state == StateOff {
		r.setState(StateIdle)
	}
}

// SensedPower reads the RSSI register: total in-channel energy, the
// quantity CCA compares against the threshold. A transmitting radio does
// not hear the medium; reading during TX returns the last meaningful value
// semantics-free, so we simply exclude our own signal. The reading includes
// any injected calibration error.
func (r *Radio) SensedPower() phy.DBm {
	return r.medium.SensedPower(r.id, r.cfg.Freq, r.ownTx) + r.rssiOffset
}

// CCAClear performs a clear-channel assessment: true when the sensed
// in-channel energy does not exceed the programmed threshold.
func (r *Radio) CCAClear() bool {
	return r.SensedPower() <= r.cfg.CCAThreshold
}

// SensedCoChannelPower reads only the co-channel energy — an oracle
// measurement no real CC2420 can make (see Medium.SensedCoChannelPower).
// It backs the interference-differentiating CCA upper bound of the
// paper's Section VII-C.
func (r *Radio) SensedCoChannelPower() phy.DBm {
	return r.medium.SensedCoChannelPower(r.id, r.cfg.Freq, r.ownTx)
}

// Transmit puts f on the air at the radio's channel and power. Any
// reception in progress is abandoned (the PLL retunes to TX), exactly as on
// real hardware when the MAC strobes TXON. Returns an error if the radio is
// off or already transmitting.
func (r *Radio) Transmit(f *frame.Frame) (*medium.Transmission, error) {
	switch r.state {
	case StateOff:
		return nil, fmt.Errorf("radio %d: transmit while off", r.cfg.Address)
	case StateTX:
		return nil, fmt.Errorf("radio %d: transmit while already transmitting", r.cfg.Address)
	}
	r.abortRx()
	r.setState(StateTX)
	tx := r.medium.Transmit(r.id, r.cfg.Pos, r.cfg.TxPower, r.cfg.Freq, f)
	r.ownTx = tx
	return tx, nil
}

// OnAir implements medium.Listener.
func (r *Radio) OnAir(tx *medium.Transmission) {
	if tx.Src == r.id {
		return // our own signal
	}
	if r.state == StateOff || r.state == StateTX {
		return // deaf while off or transmitting
	}
	if r.state == StateRX {
		// Interference landscape changed mid-reception.
		r.closeSegment()
		r.rx.collided = true
		// Message-in-message capture: a sufficiently stronger co-channel
		// arrival steals the lock.
		if r.cfg.CaptureMargin > 0 && tx.Freq == r.cfg.Freq {
			if newSignal := r.medium.RxPower(tx, r.id); newSignal >= r.rx.signal+r.cfg.CaptureMargin {
				r.rxBuf = receptionState{
					tx:       tx,
					signal:   newSignal,
					quiet:    phy.QuietInterference(newSignal),
					segStart: r.kernel.Now(),
					collided: true,
				}
				r.rx = &r.rxBuf
			}
		}
		return
	}
	// Idle: can we lock on? Only co-channel preambles are decodable —
	// the 802.15.4 receiver cannot synchronise to an offset carrier.
	if tx.Freq != r.cfg.Freq {
		return
	}
	// The same reachability predicate the dissemination filter applies:
	// a transmission provably below the sensitivity floor cannot lock
	// (and must not consume a fading draw), whether or not the filter
	// delivered the event — that shared gate is what keeps filtered and
	// unfiltered runs bit-identical.
	if !r.medium.Reachable(tx, r.id) {
		return
	}
	signal := r.medium.RxPower(tx, r.id)
	if signal < phy.Sensitivity {
		return
	}
	r.setState(StateRX)
	r.rxBuf = receptionState{
		tx:       tx,
		signal:   signal,
		quiet:    phy.QuietInterference(signal),
		segStart: r.kernel.Now(),
	}
	r.rx = &r.rxBuf
	if r.medium.Interference(tx, r.id, r.cfg.Freq) > phy.Silent {
		r.rx.collided = true
	}
}

// OffAir implements medium.Listener.
func (r *Radio) OffAir(tx *medium.Transmission) {
	if tx.Src == r.id {
		r.ownTx = nil
		if r.state == StateTX {
			r.setState(StateIdle)
		}
		if r.OnTxDone != nil {
			r.OnTxDone(tx)
		}
		return
	}
	if r.state != StateRX {
		return
	}
	if r.rx.tx == tx {
		r.finishRx()
		return
	}
	// An interferer left mid-reception.
	r.closeSegment()
}

// closeSegment integrates bit errors over the elapsed segment at the
// current interference level and starts a new segment.
//
// The errors are exactly Binomial(bits, BitErrorRate(SINR)) on the radio's
// bit stream, count and stream position both, but most segments are
// settled before the closed form, in three proven steps:
//
//   - quiet bound: interference at or below the reception's
//     phy.QuietInterference bound guarantees SINR ≥ phy.ZeroBERCut, so
//     neither SINR nor BER is evaluated;
//   - zero cut: at SINR ≥ phy.ZeroBERCut the BER is exactly 0 and
//     Binomial(bits, 0) draws nothing, so the segment has no errors and the
//     stream is untouched;
//   - bracket: below the cut, segmentErrors draws Binomial's first uniforms
//     itself and settles "no error" against phy.BERUpperBound; only draws
//     the bound cannot settle evaluate BitErrorRate and finish Binomial
//     exactly (sim.RNG.BinomialFrom).
func (r *Radio) closeSegment() {
	now := r.kernel.Now()
	elapsed := now - r.rx.segStart
	r.rx.segStart = now
	if elapsed <= 0 {
		return
	}
	exact := float64(elapsed)/float64(bitPeriod) + r.rx.carry
	bits := int(exact)
	r.rx.carry = exact - float64(bits)
	if bits == 0 {
		return
	}
	interf := r.medium.Interference(r.rx.tx, r.id, r.cfg.Freq)
	errs, path := 0, pathQuiet
	if interf > r.rx.quiet {
		errs, path = segmentErrors(r.rng, bits, phy.SINR(r.rx.signal, interf))
		r.rx.bitErrors += errs
	}
	r.segments[path]++
	if r.onSegment != nil {
		r.onSegment(bits, interf, errs)
	}
}

// segmentErrors returns rng.Binomial(n, phy.BitErrorRate(sinr)), n > 0,
// making exactly the draws that call would make, and the path that
// settled it. It evaluates the closed form only when the zero cut and the
// bracket cannot settle the count.
func segmentErrors(rng *sim.RNG, n int, sinr float64) (int, segmentPath) {
	if sinr >= phy.ZeroBERCut {
		return 0, pathZeroCut
	}
	hi, log1pNegHi, ok := phy.BERUpperBound(sinr)
	if !ok {
		return rng.Binomial(n, phy.BitErrorRate(sinr)), pathExact
	}
	u := rng.Float64() // Binomial's first draw: BER > 0 below the cut
	if n > sim.BinomialDirectMax {
		// Binomial's geometric skip: no error iff the first skip reaches
		// n. The skip under hi is no longer than under the BER.
		if math.Floor(math.Log(u)/log1pNegHi) >= float64(n) {
			return 0, pathBracket
		}
		return rng.BinomialFrom(u, n, phy.BitErrorRate(sinr)), pathExact
	}
	// Binomial's direct loop: draw u is an error iff u < BER ≤ hi.
	for left := n; ; left-- {
		if u < hi {
			return rng.BinomialFrom(u, left, phy.BitErrorRate(sinr)), pathExact
		}
		if left == 1 {
			return 0, pathBracket
		}
		u = rng.Float64()
	}
}

func (r *Radio) finishRx() {
	r.closeSegment()
	rx := r.rx
	r.rx = nil
	r.setState(StateIdle)

	total := rx.tx.Frame.PayloadBits()
	errs := rx.bitErrors
	if errs > total {
		errs = total
	}
	rcv := Reception{
		Frame:     rx.tx.Frame,
		RSSI:      rx.signal + r.rssiOffset,
		BitErrors: errs,
		TotalBits: total,
		CRCOK:     errs == 0,
		Collided:  rx.collided,
		Start:     rx.tx.Start,
		End:       rx.tx.End,
	}
	if r.OnReceive != nil {
		r.OnReceive(rcv)
	}
}

func (r *Radio) abortRx() {
	if r.state == StateRX {
		r.rx = nil
		r.setState(StateIdle)
	}
}
