// Command perfbench is the simulator's end-to-end benchmark. It drives
// three workloads through the public functions of internal/experiments,
// internal/testbed and internal/topology, checks their outputs against
// recorded digests, and prints the end-to-end metrics (untraced run) or
// the per-layer metrics (traced run) named in BENCHMARK.json. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 34, "failed": 0, "metrics": {...}}
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload golden-sweep --seed 1 --seconds 40 --trace 0
//
// --workload all runs the three workloads in turn in one process.
//
// README.md in this directory lists every metric and workload.
package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"
)

// workload is one benchmark input family.
type workload struct {
	name string
	// pass runs the workload once; tr is nil on untraced passes. An error
	// means the pass measured nothing.
	pass func(seed int64, tr *tracer, parent int) (passResult, error)
	// setup, when set, times the workload's set-up alone, so a run that
	// fits only a few passes still takes the median of several set-ups.
	setup func(seed int64) (float64, error)
}

var workloads = []workload{
	{name: "golden-sweep", pass: goldenPass},
	{name: "dense-cell", pass: denseCell.pass, setup: denseCell.setup},
	{name: "city", pass: city.pass, setup: city.setup},
}

// minSetups is how many set-up samples a run takes at least, where the
// workload can set up on its own.
const minSetups = 5

// passResult is what one pass of a workload measured.
type passResult struct {
	cpu     float64 // process CPU seconds
	wall    float64 // wall seconds, printed only
	setup   float64 // CPU seconds before the first simulated event
	cellMs  dist    // CPU ms per cell
	vsecMs  dist    // CPU ms per simulated second
	allocMB float64 // bytes allocated during the pass
	liveMB  float64 // live heap after a forced GC, see README.md
	outputs []output
	layers  map[string]float64 // per-layer metrics; traced passes only
}

// output is one checked output of a pass: a golden table, or one
// design's per-network counters.
type output struct {
	name   string
	digest string
	err    error
}

// metric is a reported metric: its name and unit as BENCHMARK.json lists
// them.
type metric struct {
	Name string
	Unit string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metric{
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"cell_ms_p50", "ms"},
	{"cell_ms_p90", "ms"},
	{"ms_per_vsec_p50", "ms"},
	{"ms_per_vsec_p90", "ms"},
	{"alloc_mb", "MiB"},
	{"live_heap_mb", "MiB"},
}

// perLayer are the metrics of a traced run. A workload that cannot see a
// layer reports it as 0.
var perLayer = func() []metric {
	m := []metric{
		{"experiments.presim_s", "s"},
		{"experiments.post_s", "s"},
	}
	for _, d := range goldenDrivers {
		m = append(m, metric{"driver." + d.name + "_s", "s"})
	}
	m = append(m, []metric{
		{"parallel.cells", "count"},
		{"parallel.cell_s", "s"},
		{"parallel.idle_frac", "ratio"},
		{"topology.snapshot_s", "s"},
		{"topology.near_pair_frac", "ratio"},
		{"testbed.build_s", "s"},
		{"testbed.run_s", "s"},
		{"sim.events", "count"},
		{"sim.events_per_vsec", "1/s"},
		{"medium.tx_events", "count"},
		{"medium.callbacks", "count"},
		{"medium.callbacks_per_event", "ratio"},
		{"mac.sent", "count"},
		{"mac.busy_cca_frac", "ratio"},
		{"mac.access_failures", "count"},
		{"radio.received", "count"},
		{"radio.crc_failed", "count"},
		{"radio.collided", "count"},
		{"radio.prr", "ratio"},
		{"dcn.threshold_changes", "count"},
		{"dcn.phase_changes", "count"},
	}...)
	for _, l := range cpuLayers {
		m = append(m, metric{"cpu." + l, "share"})
	}
	return append(m, metric{"trace.overhead_s", "s"})
}()

// recordedDigests holds, per workload and seed, the digest of every
// output at the commit the baseline was measured on.
//
//go:embed digests.json
var recordedDigestsJSON []byte

// outDir receives the traced run's spans and CPU profile, inside the
// checkout.
const outDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: golden-sweep, dense-cell, city, or all three in turn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measuring time; at least one pass always runs")
	traced := fs.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var selected []workload
	for _, w := range workloads {
		if *name == w.name || *name == "all" {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 || *traced < 0 || *traced > 1 || *seconds <= 0 || *seed == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload golden-sweep|dense-cell|city|all, --seed n (not 0), --seconds s > 0, --trace 0|1")
		return 2
	}
	var recorded map[string]map[string]map[string]string
	if err := json.Unmarshal(recordedDigestsJSON, &recorded); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: digests.json: %v\n", err)
		return 1
	}
	// With all three, each workload's result line is followed by one that
	// sums the operations and prefixes every metric with its workload.
	total := result{Correct: true, Metrics: map[string]metricJSON{}}
	for _, w := range selected {
		want := recorded[w.name][strconv.FormatInt(*seed, 10)]
		r, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *traced == 1, want, stdout)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		if err := printJSON(stdout, r); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		total.Correct = total.Correct && r.Correct
		total.Attempted += r.Attempted
		total.Failed += r.Failed
		for k, v := range r.Metrics {
			total.Metrics[w.name+"."+k] = v
		}
	}
	if len(selected) > 1 {
		if err := printJSON(stdout, total); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	return 0
}

// printJSON prints a result line. It fails on a metric with no samples
// (NaN), which only a pass that failed before measuring leaves.
func printJSON(w io.Writer, r result) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// result is the final JSON line.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs passes of w until the time is spent, never starting a pass
// the last one's duration says would overrun, and always at least one. A
// traced run alternates untraced and traced passes, starting untraced, and
// runs at least one of each so the tracing overhead can be reported.
func measure(w workload, seed int64, budget time.Duration, traced bool, want map[string]string, out io.Writer) (result, error) {
	start := time.Now()
	tr := &tracer{t0: start}
	var plain, withTrace []passResult
	tracedPasses := 0
	var samples []profSample
	checker := digestChecker{want: want}
	if traced {
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return result{}, err
		}
	}
	for i := 0; ; i++ {
		tracePass := traced && i%2 == 1
		p0 := time.Now()
		var pr passResult
		var err error
		if tracePass {
			var prof bytes.Buffer
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return result{}, fmt.Errorf("cpu profile: %w", err)
			}
			passSpan := tr.begin(fmt.Sprintf("pass %d", i), 0)
			pr, err = runPass(w, seed, tr, passSpan)
			tr.end(passSpan)
			pprof.StopCPUProfile()
			s, perr := parseProfile(prof.Bytes())
			if perr != nil {
				return result{}, perr
			}
			samples = append(samples, s...)
			if werr := os.WriteFile(filepath.Join(outDir, fmt.Sprintf("cpu-%s-seed%d-pass%d.pprof", w.name, seed, i)), prof.Bytes(), 0o644); werr != nil {
				return result{}, werr
			}
			tracedPasses++
			if err == nil {
				withTrace = append(withTrace, pr)
			}
		} else if pr, err = runPass(w, seed, nil, 0); err == nil {
			plain = append(plain, pr)
		}
		if err != nil {
			// The run goes on, so the failure is counted and reported; a
			// run in which no pass measured anything prints no result.
			pr.outputs = append(pr.outputs, output{name: fmt.Sprintf("pass %d", i), err: err})
		}
		checker.check(pr.outputs, out)
		fmt.Fprintf(out, "pass %d (traced=%t): cpu %.3f s, wall %.3f s, setup %.4f s\n", i, tracePass, pr.cpu, pr.wall, pr.setup)
		last := time.Since(p0)
		if time.Since(start)+last > budget && (!traced || tracedPasses > 0) {
			break
		}
	}

	r := result{Attempted: checker.attempted, Failed: checker.failed, Metrics: map[string]metricJSON{}}
	r.Correct = r.Failed == 0
	fmt.Fprintf(out, "workload %s seed %d: %d outputs checked, %d failed\n", w.name, seed, r.Attempted, r.Failed)
	if traced {
		spansPath := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, seed))
		if err := tr.write(spansPath); err != nil {
			return result{}, err
		}
		layers := layerMetrics(withTrace, samples)
		layers["trace.overhead_s"] = collect(withTrace, passCPU).median() - collect(plain, passCPU).median()
		fmt.Fprintf(out, "spans: %s; cpu profiles: %s/cpu-%s-*.pprof\n", spansPath, outDir, w.name)
		for _, m := range perLayer {
			v := layers[m.Name]
			fmt.Fprintf(out, "  %-30s %12.6g %s\n", m.Name, v, m.Unit)
			r.Metrics[m.Name] = metricJSON{Value: v, Unit: m.Unit}
		}
		return r, nil
	}

	setups := collect(plain, func(p passResult) float64 { return p.setup })
	for w.setup != nil && len(setups) < minSetups {
		s, err := w.setup(seed)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, s)
	}
	var cellMs, vsecMs dist
	for _, p := range plain {
		cellMs = append(cellMs, p.cellMs...)
		vsecMs = append(vsecMs, p.vsecMs...)
	}
	cpu := collect(plain, passCPU)
	alloc := collect(plain, func(p passResult) float64 { return p.allocMB })
	live := collect(plain, func(p passResult) float64 { return p.liveMB })
	values := map[string]float64{
		"cpu_s":           cpu.median(),
		"setup_s":         setups.median(),
		"cell_ms_p50":     cellMs.quantile(50),
		"cell_ms_p90":     cellMs.quantile(90),
		"ms_per_vsec_p50": vsecMs.quantile(50),
		"ms_per_vsec_p90": vsecMs.quantile(90),
		"alloc_mb":        alloc.median(),
		"live_heap_mb":    live.median(),
	}
	fmt.Fprintf(out, "  cpu_s         %s\n", cpu.describe("s"))
	fmt.Fprintf(out, "  (wall, not reported: %s)\n", collect(plain, func(p passResult) float64 { return p.wall }).describe("s"))
	fmt.Fprintf(out, "  setup_s       %s\n", setups.describe("s"))
	fmt.Fprintf(out, "  cell_ms       %s  (p90=%.4g ms)\n", cellMs.describe("ms"), values["cell_ms_p90"])
	fmt.Fprintf(out, "  ms_per_vsec   %s  (p90=%.4g ms)\n", vsecMs.describe("ms"), values["ms_per_vsec_p90"])
	fmt.Fprintf(out, "  alloc_mb      %s\n", alloc.describe("MiB"))
	fmt.Fprintf(out, "  live_heap_mb  %s\n", live.describe("MiB"))
	for _, m := range endToEnd {
		r.Metrics[m.Name] = metricJSON{Value: values[m.Name], Unit: m.Unit}
	}
	return r, nil
}

// runPass runs one pass, turning a panic outside any sweep (a crashed
// dense-cell or city design, or a benchmark bug) into an error.
func runPass(w workload, seed int64, tr *tracer, parent int) (pr passResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return w.pass(seed, tr, parent)
}

// collect gathers one figure from every pass.
func collect(ps []passResult, figure func(passResult) float64) dist {
	var d dist
	for _, p := range ps {
		d = append(d, figure(p))
	}
	return d
}

func passCPU(p passResult) float64 { return p.cpu }

// layerMetrics takes the median of each per-layer value over the traced
// passes and adds the CPU shares of their profiles.
func layerMetrics(passes []passResult, samples []profSample) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayer {
		var d dist
		for _, p := range passes {
			if v, ok := p.layers[m.Name]; ok {
				d = append(d, v)
			}
		}
		if len(d) > 0 {
			out[m.Name] = d.median()
		}
	}
	for l, share := range rollup(samples) {
		out["cpu."+l] = share
	}
	return out
}

// digestChecker counts outputs and failures. An output fails when its
// pass reported an error (a failed cell, a panic, a broken invariant), or
// when its digest differs from the recorded one for this seed, or from
// the same output's first clean pass in the run.
type digestChecker struct {
	want      map[string]string
	first     map[string]string
	attempted int
	failed    int
}

func (c *digestChecker) check(outputs []output, log io.Writer) {
	if c.first == nil {
		c.first = map[string]string{}
	}
	for _, o := range outputs {
		c.attempted++
		err := o.err
		if err == nil && c.want != nil && c.want[o.name] != o.digest {
			err = fmt.Errorf("digest %s, recorded %s", o.digest, c.want[o.name])
		}
		first, seen := c.first[o.name]
		if err == nil && seen && first != o.digest {
			err = fmt.Errorf("digest %s, first pass %s", o.digest, first)
		}
		if err == nil && !seen {
			c.first[o.name] = o.digest
		}
		if err != nil {
			c.failed++
			fmt.Fprintf(log, "FAILED %s: %v\n", o.name, err)
			continue
		}
		fmt.Fprintf(log, "ok %s %s\n", o.name, o.digest)
	}
}

// digest is a short content hash of an output.
func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:8])
}

// liveHeapMB forces a collection and reports the live heap.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
