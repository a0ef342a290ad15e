package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func TestDigestMismatchCountsAsFailure(t *testing.T) {
	c := digestChecker{want: map[string]string{"Fig19": "aaaa", "Fig6": "bbbb"}}
	var log strings.Builder
	c.check([]output{{name: "Fig19", digest: "aaaa"}, {name: "Fig6", digest: "cccc"}}, &log)
	if c.attempted != 2 || c.failed != 1 {
		t.Fatalf("recorded-digest mismatch: attempted %d failed %d, want 2 and 1", c.attempted, c.failed)
	}
	if !strings.Contains(log.String(), "FAILED Fig6") {
		t.Errorf("failure not printed: %q", log.String())
	}
	// A later pass that matches the record passes.
	c.check([]output{{name: "Fig19", digest: "aaaa"}, {name: "Fig6", digest: "bbbb"}}, io.Discard)
	if c.attempted != 4 || c.failed != 1 {
		t.Fatalf("second pass: attempted %d failed %d, want 4 and 1", c.attempted, c.failed)
	}
	// A failed cell or broken invariant fails its output even when the
	// digest matches.
	c.check([]output{{name: "Fig19", digest: "aaaa", err: errors.New("1 cells failed")}}, io.Discard)
	if c.failed != 2 {
		t.Fatalf("output error: failed %d, want 2", c.failed)
	}
}

func TestUnrecordedSeedChecksRepetitionOnly(t *testing.T) {
	var c digestChecker
	c.check([]output{{name: "dcn", digest: "1111"}}, io.Discard)
	c.check([]output{{name: "dcn", digest: "1111"}}, io.Discard)
	if c.attempted != 2 || c.failed != 0 {
		t.Fatalf("attempted %d failed %d, want 2 and 0", c.attempted, c.failed)
	}
	c.check([]output{{name: "dcn", digest: "2222"}}, io.Discard)
	if c.failed != 1 {
		t.Fatalf("changed digest: failed %d, want 1", c.failed)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"--workload", "nope"},
		{"--workload", "city", "--trace", "2"},
		{"--workload", "city", "--seconds", "0"},
		{"--workload", "city", "--bogus"},
	} {
		var out strings.Builder
		if code := run(args, &out); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed a result: %q", args, out.String())
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json, at the root of the
// repository, in step with the metrics and workloads this program reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

func TestRecordedDigestsParse(t *testing.T) {
	var recorded map[string]map[string]map[string]string
	if err := json.Unmarshal(recordedDigestsJSON, &recorded); err != nil {
		t.Fatal(err)
	}
	for name := range recorded {
		found := false
		for _, w := range workloads {
			found = found || w.name == name
		}
		if !found {
			t.Errorf("digests.json names unknown workload %q", name)
		}
	}
}

func TestFailedPassCountsAsFailureAndRunGoesOn(t *testing.T) {
	calls := 0
	w := workload{name: "fake", pass: func(seed int64, tr *tracer, parent int) (passResult, error) {
		calls++
		time.Sleep(2 * time.Millisecond)
		switch calls {
		case 2:
			panic("cell exploded")
		case 3:
			return passResult{}, errors.New("snapshot failed")
		}
		return passResult{cpu: 1, setup: 0.1, cellMs: dist{1, 2}, vsecMs: dist{3, 4},
			allocMB: 5, liveMB: 6, outputs: []output{{name: "out", digest: "d"}}}, nil
	}}
	var log strings.Builder
	r, err := measure(w, 1, 30*time.Millisecond, false, nil, &log)
	if err != nil {
		t.Fatal(err)
	}
	if calls < 4 {
		t.Fatalf("run stopped after %d passes", calls)
	}
	if r.Failed != 2 || r.Attempted != calls || r.Correct {
		t.Errorf("attempted %d failed %d correct %t; want %d, 2, false", r.Attempted, r.Failed, r.Correct, calls)
	}
	if !strings.Contains(log.String(), "cell exploded") || !strings.Contains(log.String(), "snapshot failed") {
		t.Errorf("failures not printed:\n%s", log.String())
	}
	if got := r.Metrics["cpu_s"].Value; got != 1 {
		t.Errorf("cpu_s = %g from the good passes, want 1", got)
	}
}

func TestRepetitionReferenceSkipsFailedOutputs(t *testing.T) {
	var c digestChecker
	c.check([]output{{name: "dcn", err: errors.New("panic")}}, io.Discard)
	c.check([]output{{name: "dcn", digest: "1111"}}, io.Discard)
	c.check([]output{{name: "dcn", digest: "1111"}}, io.Discard)
	if c.attempted != 3 || c.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 3 and 1", c.attempted, c.failed)
	}
}
