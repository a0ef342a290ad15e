package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU-share rollup reads the profile runtime/pprof writes: a gzipped
// protobuf (github.com/google/pprof/proto/profile.proto). The module has
// no dependencies, so the few messages the rollup needs are decoded here.

// profSample is one profile sample: its stack of function names, leaf
// first with inlined frames expanded, and its CPU time in nanoseconds.
type profSample struct {
	stack []string
	nanos int64
}

// cpuLayers are the layers CPU self-time is rolled up to, in report order.
var cpuLayers = []string{"phy", "sim", "medium", "radio", "mac", "dcn", "topology", "testbed", "harness", "gc", "other"}

// modulePrefix marks the simulator's own packages.
const modulePrefix = "nonortho/"

// layerOf maps a function name to the layer that owns it, or "" for code
// outside the module (the standard library and the runtime).
func layerOf(fn string) string {
	if !strings.HasPrefix(fn, modulePrefix) {
		return ""
	}
	pkg, ok := strings.CutPrefix(fn, modulePrefix+"internal/")
	if !ok {
		return "other" // commands and this benchmark
	}
	if i := strings.IndexAny(pkg, "./"); i >= 0 {
		pkg = pkg[:i]
	}
	switch pkg {
	case "phy", "sim", "medium", "radio", "mac", "dcn", "topology", "testbed":
		return pkg
	case "experiments", "parallel", "arena":
		return "harness"
	}
	return "other"
}

// isGC reports whether a frame belongs to the garbage collector: the
// background mark workers, mark assists charged to allocating code, and
// sweeping and scavenging.
func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.deductSweepCredit":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// rollup charges each sample to one layer and returns every layer's share
// of the total, summing to 1. A sample with a garbage-collector frame
// anywhere on its stack is GC. Otherwise it goes to the innermost module
// frame, so standard-library and runtime time is charged to its caller;
// a stack with no module frame at all is "other".
func rollup(samples []profSample) map[string]float64 {
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		shares[l] = 0
	}
	var total float64
	for _, s := range samples {
		shares[sampleLayer(s.stack)] += float64(s.nanos)
		total += float64(s.nanos)
	}
	if total > 0 {
		for _, l := range cpuLayers {
			shares[l] /= total
		}
	}
	return shares
}

func sampleLayer(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "gc"
		}
	}
	for _, fn := range stack {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "other"
}

// parseProfile decodes a (possibly gzipped) pprof profile into samples,
// taking each sample's last value, which for a Go CPU profile is CPU
// nanoseconds.
func parseProfile(data []byte) ([]profSample, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile gzip: %w", err)
		}
	}
	type rawSample struct {
		locs   []uint64
		values []uint64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, leaf first
		fnName  = map[uint64]int64{}    // function id → string table index
		strs    []string
	)
	err := eachField(data, func(f int, v uint64, b []byte) error {
		switch f {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					s.values = appendVarints(s.values, v, b)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			return nil, errors.New("profile sample without values")
		}
		ps := profSample{nanos: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fid := range locFns[loc] {
				idx := fnName[fid]
				if idx < 0 || idx >= int64(len(strs)) {
					return nil, fmt.Errorf("profile function %d names string %d of %d", fid, idx, len(strs))
				}
				ps.stack = append(ps.stack, strs[idx])
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// appendVarints appends one repeated-scalar field occurrence: a single
// varint (v, b nil) or a packed run of varints (b).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField walks a protobuf message, calling visit with each field's
// number and either its varint value (b nil) or its length-delimited
// bytes. Fixed-width fields are skipped; the profile uses none of them.
func eachField(msg []byte, visit func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var (
			v uint64
			b []byte
		)
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := visit(field, v, b); err != nil {
			return err
		}
	}
	return nil
}
