// Package mac implements the unslotted IEEE 802.15.4 CSMA/CA MAC on top of
// a radio: binary-exponential backoff, clear-channel assessment through a
// pluggable policy, optional acknowledgements with retries, and the
// promiscuous overhear hook the DCN CCA-Adjustor feeds on.
package mac

import (
	"strconv"
	"time"

	"nonortho/internal/frame"
	"nonortho/internal/medium"
	"nonortho/internal/radio"
	"nonortho/internal/sim"
)

// Default MAC constants from IEEE 802.15.4-2003 §7.4.2.
const (
	DefaultMinBE           = 3
	DefaultMaxBE           = 5
	DefaultMaxCSMABackoffs = 4
	DefaultMaxFrameRetries = 3
	// AckWait is macAckWaitDuration: 54 symbols.
	AckWait = 54 * frame.SymbolPeriod
)

// CCAPolicy decides whether the channel is clear before a transmission.
type CCAPolicy interface {
	// Clear reports whether the MAC may transmit now.
	Clear(r *radio.Radio) bool
}

// ThresholdCCA is the standard policy: compare the sensed in-channel energy
// with the radio's programmed CCA threshold register. Both the fixed
// ZigBee design and DCN use this policy; DCN differs only in reprogramming
// the register at run time.
type ThresholdCCA struct{}

// Clear implements CCAPolicy.
func (ThresholdCCA) Clear(r *radio.Radio) bool { return r.CCAClear() }

// DisabledCCA always reports a clear channel — the paper's "carrier sense
// disabled" mode used to force collisions in the concurrency probe.
type DisabledCCA struct{}

// Clear implements CCAPolicy.
func (DisabledCCA) Clear(*radio.Radio) bool { return true }

// OracleDiscriminatingCCA is the upper bound the paper's Section VII-C
// asks for: a CCA that can tell co-channel interference from
// neighbour-channel interference. It defers only to co-channel energy
// above the threshold and ignores inter-channel energy entirely —
// perfect concurrency exploitation with perfect collision avoidance.
// No deployed radio can implement it (the energy detector cannot
// attribute energy to a source channel); it exists to measure how much
// headroom DCN leaves on the table.
type OracleDiscriminatingCCA struct{}

// Clear implements CCAPolicy.
func (OracleDiscriminatingCCA) Clear(r *radio.Radio) bool {
	return r.SensedCoChannelPower() <= r.CCAThreshold()
}

// Config parameterises a MAC instance. Zero fields take the 802.15.4
// defaults.
type Config struct {
	// MinBE and MaxBE bound the backoff exponent.
	MinBE, MaxBE int
	// MaxCSMABackoffs is the number of busy CCAs tolerated before the
	// packet is dropped as a channel-access failure.
	MaxCSMABackoffs int
	// CCA is the clear-channel policy. Defaults to ThresholdCCA.
	CCA CCAPolicy
	// AckEnabled requests acknowledgements and retransmissions for
	// unicast data frames.
	AckEnabled bool
	// MaxFrameRetries bounds retransmissions when AckEnabled.
	MaxFrameRetries int
	// QueueCap bounds the transmit queue; Send fails beyond it.
	QueueCap int
}

func (c Config) withDefaults() Config {
	if c.MinBE == 0 {
		c.MinBE = DefaultMinBE
	}
	if c.MaxBE == 0 {
		c.MaxBE = DefaultMaxBE
	}
	if c.MaxCSMABackoffs == 0 {
		c.MaxCSMABackoffs = DefaultMaxCSMABackoffs
	}
	if c.CCA == nil {
		c.CCA = ThresholdCCA{}
	}
	if c.MaxFrameRetries == 0 {
		c.MaxFrameRetries = DefaultMaxFrameRetries
	}
	if c.QueueCap == 0 {
		c.QueueCap = 64
	}
	return c
}

// Counters aggregates MAC-level statistics.
type Counters struct {
	// Enqueued counts frames accepted by Send.
	Enqueued int
	// Sent counts frames put on the air (transmission attempts).
	Sent int
	// Delivered counts unicast frames positively acknowledged (only
	// meaningful when AckEnabled).
	Delivered int
	// AccessFailures counts packets dropped after MaxCSMABackoffs busy
	// CCAs.
	AccessFailures int
	// RetryFailures counts packets dropped after exhausting retries.
	RetryFailures int
	// BusyCCA counts individual CCA attempts that found the channel busy.
	BusyCCA int
	// ClearCCA counts CCA attempts that found the channel clear.
	ClearCCA int
}

// MAC drives one radio.
type MAC struct {
	kernel *sim.Kernel
	radio  *radio.Radio
	cfg    Config
	rng    *sim.RNG

	queue     []*frame.Frame
	inFlight  bool
	suspended bool
	seq       uint8
	counters  Counters
	// csma is the pending step of the CSMA/CA run: backoff, CCA or
	// turnaround.
	csma sim.Event

	// pending ACK state
	awaitingAck bool
	ackSeq      uint8
	ackTimer    sim.Event
	retries     int

	// OnReceive delivers CRC-clean frames addressed to this node (or
	// broadcast), after ACK handling.
	OnReceive func(radio.Reception)
	// OnOverhear delivers every co-channel reception the radio captures,
	// clean or corrupt, addressed to anyone. This is the DCN Adjustor's
	// information source.
	OnOverhear func(radio.Reception)
	// OnSent fires when a frame of ours leaves the air (per attempt).
	OnSent func(*frame.Frame)
	// OnDropped fires when a frame is abandoned (access failure or retry
	// exhaustion).
	OnDropped func(*frame.Frame)
	// OnDelivered fires when a unicast frame is positively acknowledged
	// (AckEnabled only) — the link-level success signal adaptive routing
	// needs.
	OnDelivered func(*frame.Frame)
}

// New binds a MAC to a radio.
func New(k *sim.Kernel, r *radio.Radio, cfg Config) *MAC {
	m := &MAC{
		kernel: k,
		radio:  r,
		cfg:    cfg.withDefaults(),
		rng:    k.Stream("mac." + strconv.Itoa(int(r.Address()))),
	}
	r.OnReceive = m.handleReception
	r.OnTxDone = m.handleTxDone
	return m
}

// Radio exposes the underlying radio (for the CCA-Adjustor and tests).
func (m *MAC) Radio() *radio.Radio { return m.radio }

// Counters returns a snapshot of the MAC statistics.
func (m *MAC) Counters() Counters { return m.counters }

// QueueLen reports the number of frames waiting (excluding in flight).
func (m *MAC) QueueLen() int { return len(m.queue) }

// Send enqueues a data frame for CSMA/CA transmission. The MAC assigns the
// sequence number. Send reports false when the queue is full.
func (m *MAC) Send(f *frame.Frame) bool {
	if len(m.queue) >= m.cfg.QueueCap {
		return false
	}
	f.Seq = m.seq
	m.seq++
	if m.cfg.AckEnabled && f.Dst != frame.Broadcast {
		f.AckReq = true
	}
	m.queue = append(m.queue, f)
	m.counters.Enqueued++
	m.kick()
	return true
}

func (m *MAC) kick() {
	if m.suspended || m.inFlight || len(m.queue) == 0 {
		return
	}
	m.inFlight = true
	m.retries = 0
	m.startCSMA()
}

// Suspend models an MCU halt (node crash): the pending ACK timer and CSMA
// step are cancelled, CSMA state is cleared and every queued frame is
// flushed via OnDropped — RAM contents do not survive a reboot. Frames
// may still be enqueued with Send while suspended (a traffic source
// refilling its queue), but nothing is transmitted and incoming
// receptions are ignored until Resume.
func (m *MAC) Suspend() {
	if m.suspended {
		return
	}
	m.suspended = true
	m.awaitingAck = false
	m.kernel.Cancel(m.ackTimer)
	m.kernel.Cancel(m.csma)
	m.inFlight = false
	m.retries = 0
	flushed := m.queue
	m.queue = nil
	for _, f := range flushed {
		if m.OnDropped != nil {
			m.OnDropped(f)
		}
	}
}

// Resume restarts a suspended MAC (node reboot) and kicks the transmit
// queue if frames accumulated during the outage.
func (m *MAC) Resume() {
	if !m.suspended {
		return
	}
	m.suspended = false
	m.kick()
}

// Suspended reports whether the MAC is halted by Suspend.
func (m *MAC) Suspended() bool { return m.suspended }

// startCSMA begins the unslotted CSMA/CA procedure for the head-of-queue
// frame: NB=0, BE=minBE, random backoff, CCA, transmit or retreat.
func (m *MAC) startCSMA() {
	m.csmaAttempt(0, m.cfg.MinBE)
}

func (m *MAC) csmaAttempt(nb, be int) {
	slots := m.rng.Intn(1 << be)
	delay := time.Duration(slots) * frame.BackoffPeriod
	m.csma = m.kernel.After(delay, func() {
		if m.suspended {
			return
		}
		// The CCA result is read at the end of the 8-symbol window.
		m.csma = m.kernel.After(frame.CCATime, func() {
			if m.suspended {
				return
			}
			if m.cfg.CCA.Clear(m.radio) {
				m.counters.ClearCCA++
				m.csma = m.kernel.After(frame.TurnaroundTime, m.transmitHead)
				return
			}
			m.counters.BusyCCA++
			if nb+1 > m.cfg.MaxCSMABackoffs {
				m.dropHead(&m.counters.AccessFailures)
				return
			}
			nextBE := be + 1
			if nextBE > m.cfg.MaxBE {
				nextBE = m.cfg.MaxBE
			}
			m.csmaAttempt(nb+1, nextBE)
		})
	})
}

func (m *MAC) transmitHead() {
	if m.suspended {
		return
	}
	if len(m.queue) == 0 {
		m.inFlight = false
		return
	}
	f := m.queue[0]
	if _, err := m.radio.Transmit(f); err != nil {
		// Radio unusable (e.g. powered off): drop the frame.
		m.dropHead(&m.counters.AccessFailures)
	}
}

func (m *MAC) dropHead(counter *int) {
	if len(m.queue) == 0 {
		m.inFlight = false
		return
	}
	f := m.queue[0]
	m.queue = m.queue[1:]
	*counter++
	m.inFlight = false
	if m.OnDropped != nil {
		m.OnDropped(f)
	}
	m.kick()
}

func (m *MAC) completeHead() {
	if len(m.queue) == 0 {
		m.inFlight = false
		return
	}
	m.queue = m.queue[1:]
	m.inFlight = false
	m.kick()
}

func (m *MAC) handleTxDone(tx *medium.Transmission) {
	if m.suspended {
		return // the MCU halted while our frame's tail was still on air
	}
	f := tx.Frame
	if f.Type == frame.TypeAck {
		return // our own ACK; not a queued frame
	}
	m.counters.Sent++
	if m.OnSent != nil {
		m.OnSent(f)
	}
	if f.AckReq {
		m.awaitingAck = true
		m.ackSeq = f.Seq
		m.ackTimer = m.kernel.After(AckWait, m.ackTimeout)
		return
	}
	m.completeHead()
}

func (m *MAC) ackTimeout() {
	if !m.awaitingAck {
		return
	}
	m.awaitingAck = false
	m.retries++
	if m.retries > m.cfg.MaxFrameRetries {
		m.dropHead(&m.counters.RetryFailures)
		return
	}
	m.startCSMA()
}

func (m *MAC) handleReception(r radio.Reception) {
	if m.suspended {
		return
	}
	if m.OnOverhear != nil {
		m.OnOverhear(r)
	}
	if !r.CRCOK {
		return
	}
	f := r.Frame
	addr := m.radio.Address()

	if f.Type == frame.TypeAck {
		if m.awaitingAck && f.Seq == m.ackSeq {
			m.awaitingAck = false
			m.kernel.Cancel(m.ackTimer)
			m.counters.Delivered++
			if m.OnDelivered != nil && len(m.queue) > 0 {
				m.OnDelivered(m.queue[0])
			}
			m.completeHead()
		}
		return
	}
	if f.Dst != addr && f.Dst != frame.Broadcast {
		return
	}
	if f.AckReq && f.Dst == addr {
		ack := &frame.Frame{Type: frame.TypeAck, Seq: f.Seq, Src: addr, Dst: f.Src, PAN: f.PAN}
		m.kernel.After(frame.TurnaroundTime, func() {
			// ACKs bypass CSMA per the standard.
			_, _ = m.radio.Transmit(ack)
		})
	}
	if m.OnReceive != nil {
		m.OnReceive(r)
	}
}
