package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a minimal protobuf encoder for building synthetic profiles.
type pb []byte

func (b pb) key(field, wire int) pb { return binary.AppendUvarint(b, uint64(field<<3|wire)) }

func (b pb) varint(field int, v uint64) pb { return binary.AppendUvarint(b.key(field, 0), v) }

func (b pb) bytes(field int, msg []byte) pb {
	b = binary.AppendUvarint(b.key(field, 2), uint64(len(msg)))
	return append(b, msg...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return b.bytes(field, body)
}

// syntheticProfile encodes a gzipped profile whose samples are the given
// stacks (leaf first) with the given CPU nanoseconds. Every frame gets its
// own location, except that a stack entry holding two names becomes one
// location with an inlined line, as the Go runtime writes them.
func syntheticProfile(t *testing.T, stacks [][][]string, nanos []int64) []byte {
	t.Helper()
	var prof pb
	strs := map[string]uint64{"": 0}
	order := []string{""}
	str := func(s string) uint64 {
		if id, ok := strs[s]; ok {
			return id
		}
		strs[s] = uint64(len(order))
		order = append(order, s)
		return strs[s]
	}
	fnIDs := map[string]uint64{}
	var locID uint64
	prof = prof.bytes(1, pb(nil).varint(1, str("samples")).varint(2, str("count")))
	prof = prof.bytes(1, pb(nil).varint(1, str("cpu")).varint(2, str("nanoseconds")))
	for i, stack := range stacks {
		var locs []uint64
		for _, frame := range stack {
			locID++
			loc := pb(nil).varint(1, locID)
			for _, fn := range frame {
				if _, ok := fnIDs[fn]; !ok {
					id := uint64(len(fnIDs) + 1)
					fnIDs[fn] = id
					prof = prof.bytes(5, pb(nil).varint(1, id).varint(2, str(fn)))
				}
				loc = loc.bytes(4, pb(nil).varint(1, fnIDs[fn]).varint(2, 10))
			}
			prof = prof.bytes(4, loc)
			locs = append(locs, locID)
		}
		s := pb(nil)
		if i%2 == 0 { // exercise both repeated-field encodings
			s = s.packed(1, locs...)
		} else {
			for _, l := range locs {
				s = s.varint(1, l)
			}
		}
		s = s.packed(2, 1, uint64(nanos[i]))
		prof = prof.bytes(2, s)
	}
	for _, s := range order {
		prof = prof.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRollupChargesStdlibToCaller(t *testing.T) {
	stacks := [][][]string{
		// math.Exp called from phy, inlined into radio: phy.
		{{"math.Exp"}, {"nonortho/internal/phy.BitErrorRate", "nonortho/internal/radio.(*Radio).closeSegment"}, {"runtime.goexit"}},
		// Allocation in the medium: the runtime frames are charged to it.
		{{"runtime.mallocgc"}, {"runtime.newobject"}, {"nonortho/internal/medium.(*Medium).OnAir"}, {"nonortho/internal/sim.(*Kernel).run"}},
		// A mark assist under medium code is GC, not medium.
		{{"runtime.scanobject"}, {"runtime.gcDrainN"}, {"runtime.gcAssistAlloc"}, {"runtime.mallocgc"}, {"nonortho/internal/medium.(*Medium).OnAir"}},
		// Background mark worker: GC.
		{{"runtime.scanobject"}, {"runtime.gcBgMarkWorker"}},
		// Scheduler with no module frame: other.
		{{"runtime.futex"}, {"runtime.mcall"}},
		// Worker-pool closure: the harness.
		{{"sync.(*Mutex).Lock"}, {"nonortho/internal/parallel.RunSweep[...].func3"}},
		// A generic in the experiments package.
		{{"nonortho/internal/experiments.runEngine[...]"}},
		// This benchmark's own code (package main) owns no layer: other.
		{{"strconv.FormatFloat"}, {"main.cellOutput"}, {"runtime.main"}},
		// A module package outside the named layers.
		{{"nonortho/internal/stats.Link.PRR"}},
	}
	nanos := []int64{400, 100, 50, 50, 30, 20, 10, 30, 10}
	samples, err := parseProfile(syntheticProfile(t, stacks, nanos))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) {
		t.Fatalf("parsed %d samples, want %d", len(samples), len(stacks))
	}
	if got := samples[0].stack; len(got) != 4 || got[1] != "nonortho/internal/phy.BitErrorRate" {
		t.Fatalf("inlined frames not expanded leaf first: %q", got)
	}
	shares := rollup(samples)
	want := map[string]float64{"phy": 400, "medium": 100, "gc": 100, "other": 70, "harness": 30} // of 700 ns
	total := 0.0
	for _, l := range cpuLayers {
		total += shares[l]
		if math.Abs(shares[l]-want[l]/700) > 1e-12 {
			t.Errorf("cpu.%s = %g, want %g", l, shares[l], want[l]/700)
		}
	}
	if len(shares) != len(cpuLayers) {
		t.Errorf("rollup has %d layers, want %d", len(shares), len(cpuLayers))
	}
	if math.Abs(total-1) > 1e-12 {
		t.Errorf("shares sum to %g, want 1", total)
	}
}

func TestParseProfileReadsRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	x := 1.0
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); {
		x = math.Sqrt(x + 1)
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		if s.nanos <= 0 || len(s.stack) == 0 {
			t.Fatalf("bad sample %+v", s)
		}
	}
	_ = x
}

func TestParseProfileRejectsTruncatedInput(t *testing.T) {
	data := pb(nil).bytes(2, pb(nil).packed(1, 1, 2))
	if _, err := parseProfile(data[:len(data)-1]); err == nil {
		t.Error("truncated profile parsed without error")
	}
}
