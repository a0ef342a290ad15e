// Package frame implements IEEE 802.15.4 MAC frames: encoding, decoding,
// the FCS checksum, and on-air timing for the 2.4 GHz 250 kbps PHY.
package frame

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Timing constants of the 2.4 GHz O-QPSK PHY (IEEE 802.15.4-2003 §6.5).
const (
	// SymbolPeriod is the duration of one 4-bit symbol at 62.5 ksymbol/s.
	SymbolPeriod = 16 * time.Microsecond
	// ByteAirtime is the on-air duration of one octet (2 symbols).
	ByteAirtime = 2 * SymbolPeriod
	// BackoffPeriod is aUnitBackoffPeriod: 20 symbols.
	BackoffPeriod = 20 * SymbolPeriod
	// CCATime is the carrier-sense window: 8 symbols.
	CCATime = 8 * SymbolPeriod
	// TurnaroundTime is aTurnaroundTime (RX↔TX): 12 symbols.
	TurnaroundTime = 12 * SymbolPeriod
	// PHYOverheadBytes is preamble (4) + SFD (1) + frame length (1).
	PHYOverheadBytes = 6
	// MaxPayload is the largest MSDU this MAC carries.
	MaxPayload = MaxMPDU - HeaderBytes - FCSBytes
	// HeaderBytes is the MAC header: FCF(2) + seq(1) + dst PAN(2) +
	// dst addr(2) + src addr(2).
	HeaderBytes = 9
	// FCSBytes is the 16-bit frame check sequence.
	FCSBytes = 2
	// MaxMPDU is aMaxPHYPacketSize.
	MaxMPDU = 127
)

// Type is the 802.15.4 frame type carried in the frame control field.
type Type uint8

// Frame types (FCF bits 0-2).
const (
	TypeBeacon Type = iota
	TypeData
	TypeAck
	TypeCommand
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeBeacon:
		return "beacon"
	case TypeData:
		return "data"
	case TypeAck:
		return "ack"
	case TypeCommand:
		return "command"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Address is a 16-bit short address.
type Address uint16

// Broadcast is the 802.15.4 broadcast short address.
const Broadcast Address = 0xFFFF

// Frame is a decoded MAC frame. The simulator treats Payload as
// read-only once the frame is handed to a MAC: traffic sources share one
// payload slice across their frames, and receivers only read it (Decode
// copies).
type Frame struct {
	Type    Type
	AckReq  bool
	Seq     uint8
	PAN     uint16
	Dst     Address
	Src     Address
	Payload []byte // read-only once handed to a MAC (see Frame)
}

// Errors returned by Decode.
var (
	ErrTooShort   = errors.New("frame: buffer shorter than header+FCS")
	ErrTooLong    = errors.New("frame: MPDU exceeds aMaxPHYPacketSize")
	ErrBadFCS     = errors.New("frame: FCS mismatch")
	ErrPayloadLen = errors.New("frame: payload exceeds MaxPayload")
)

// MPDUBytes returns the encoded length of the frame in octets.
func (f *Frame) MPDUBytes() int { return HeaderBytes + len(f.Payload) + FCSBytes }

// PPDUBytes returns the full on-air length including the PHY preamble, SFD
// and length field.
func (f *Frame) PPDUBytes() int { return PHYOverheadBytes + f.MPDUBytes() }

// Airtime returns the on-air transmission duration of the frame.
func (f *Frame) Airtime() time.Duration {
	return time.Duration(f.PPDUBytes()) * ByteAirtime
}

// AirtimeForPayload computes the on-air duration of a data frame carrying
// n payload bytes, without building the frame.
func AirtimeForPayload(n int) time.Duration {
	return time.Duration(PHYOverheadBytes+HeaderBytes+n+FCSBytes) * ByteAirtime
}

// PayloadBits returns the number of MPDU bits, the unit the PER model uses.
func (f *Frame) PayloadBits() int { return 8 * f.MPDUBytes() }

// Encode serialises the frame to wire format (MPDU only; the PHY preamble
// is timing, not data). The FCS is computed over header and payload.
func (f *Frame) Encode() ([]byte, error) {
	if len(f.Payload) > MaxPayload {
		return nil, fmt.Errorf("%w: %d > %d", ErrPayloadLen, len(f.Payload), MaxPayload)
	}
	buf := make([]byte, f.MPDUBytes())
	fcf := uint16(f.Type) & 0x7
	if f.AckReq {
		fcf |= 1 << 5
	}
	// Short addressing for both dst (bits 10-11 = 2) and src (bits 14-15 = 2).
	fcf |= 2 << 10
	fcf |= 2 << 14
	binary.LittleEndian.PutUint16(buf[0:2], fcf)
	buf[2] = f.Seq
	binary.LittleEndian.PutUint16(buf[3:5], f.PAN)
	binary.LittleEndian.PutUint16(buf[5:7], uint16(f.Dst))
	binary.LittleEndian.PutUint16(buf[7:9], uint16(f.Src))
	copy(buf[9:], f.Payload)
	fcs := FCS(buf[:len(buf)-FCSBytes])
	binary.LittleEndian.PutUint16(buf[len(buf)-FCSBytes:], fcs)
	return buf, nil
}

// Decode parses wire format back into a Frame, verifying the FCS.
func Decode(buf []byte) (*Frame, error) {
	if len(buf) < HeaderBytes+FCSBytes {
		return nil, ErrTooShort
	}
	if len(buf) > MaxMPDU {
		return nil, ErrTooLong
	}
	want := binary.LittleEndian.Uint16(buf[len(buf)-FCSBytes:])
	if got := FCS(buf[:len(buf)-FCSBytes]); got != want {
		return nil, fmt.Errorf("%w: got %#04x want %#04x", ErrBadFCS, got, want)
	}
	fcf := binary.LittleEndian.Uint16(buf[0:2])
	f := &Frame{
		Type:   Type(fcf & 0x7),
		AckReq: fcf&(1<<5) != 0,
		Seq:    buf[2],
		PAN:    binary.LittleEndian.Uint16(buf[3:5]),
		Dst:    Address(binary.LittleEndian.Uint16(buf[5:7])),
		Src:    Address(binary.LittleEndian.Uint16(buf[7:9])),
	}
	payload := buf[9 : len(buf)-FCSBytes]
	if len(payload) > 0 {
		f.Payload = make([]byte, len(payload))
		copy(f.Payload, payload)
	}
	return f, nil
}
