package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"nonortho/internal/experiments"
)

// goldenDriver is one golden-table driver and the table text it renders.
type goldenDriver struct {
	name string
	run  func(experiments.Options) string
}

// goldenDrivers are the 17 golden paper tables, in the order and with the
// rendering the experiments package's determinism suite pins.
var goldenDrivers = []goldenDriver{
	{"Fig1", func(o experiments.Options) string { _, t := experiments.Fig1(o); return t.String() }},
	{"Fig2", func(o experiments.Options) string { _, t := experiments.Fig2(o); return t.String() }},
	{"Fig4", func(o experiments.Options) string { _, t := experiments.Fig4(o); return t.String() }},
	{"Fig6", func(o experiments.Options) string { _, t := experiments.Fig6(o); return t.String() }},
	{"Fig7", func(o experiments.Options) string { _, t := experiments.Fig7(o); return t.String() }},
	{"Fig14and15", func(o experiments.Options) string {
		_, t14, t15 := experiments.Fig14and15(o)
		return t14.String() + t15.String()
	}},
	{"Fig16", func(o experiments.Options) string { _, t := experiments.Fig16(o); return t.String() }},
	{"Fig17", func(o experiments.Options) string { _, t := experiments.Fig17(o); return t.String() }},
	{"Fig18", func(o experiments.Options) string { _, t := experiments.Fig18(o); return t.String() }},
	{"Fig19", func(o experiments.Options) string { _, t := experiments.Fig19(o); return t.String() }},
	{"Fig20and21", func(o experiments.Options) string {
		_, t20, t21 := experiments.Fig20and21(o)
		return t20.String() + t21.String()
	}},
	{"TableI", func(o experiments.Options) string { _, t := experiments.TableI(o); return t.String() }},
	{"Fig25", func(o experiments.Options) string { _, t := experiments.Fig25(o); return t.String() }},
	{"Fig26", func(o experiments.Options) string { _, t := experiments.Fig26(o); return t.String() }},
	{"Fig28", func(o experiments.Options) string { _, t := experiments.Fig28(o); return t.String() }},
	{"Fig30", func(o experiments.Options) string { _, t := experiments.Fig30(o); return t.String() }},
	{"BandSweep", func(o experiments.Options) string { _, t := experiments.BandSweep(o); return t.String() }},
}

// cellWatch is the sweep Watcher: it times every cell of the current
// driver and remembers when the driver's first cell started and its last
// cell finished. Cells of one sweep run on several workers at once. Both
// methods run on the cell's own goroutine, which the watch holds on its
// OS thread for the cell so the thread's CPU time is the cell's.
type cellWatch struct {
	tr     *tracer
	parent int

	mu      sync.Mutex
	started map[int]cellStart
	// first and last bound the driver's cells in wall time; firstCPU and
	// lastCPU are the process CPU time at those instants.
	first, last       time.Time
	firstCPU, lastCPU time.Duration
	cellMs            []float64     // thread CPU time per cell
	busy              time.Duration // wall time summed over cells
}

type cellStart struct {
	wall time.Time
	cpu  time.Duration
}

func (w *cellWatch) CellStarted(cell int) {
	runtime.LockOSThread()
	now, proc := time.Now(), procCPU()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.first.IsZero() {
		w.first, w.firstCPU = now, proc
	}
	w.started[cell] = cellStart{wall: now, cpu: threadCPU()}
}

func (w *cellWatch) CellFinished(cell int) {
	cpu, now, proc := threadCPU(), time.Now(), procCPU()
	runtime.UnlockOSThread()
	w.mu.Lock()
	start := w.started[cell]
	delete(w.started, cell)
	w.cellMs = append(w.cellMs, float64((cpu-start.cpu).Nanoseconds())/1e6)
	w.busy += now.Sub(start.wall)
	w.last, w.lastCPU = now, proc
	w.mu.Unlock()
	w.tr.add(fmt.Sprintf("cell %d", cell), w.parent, start.wall, now)
}

// goldenPass runs the 17 drivers at experiments.Quick with one worker per
// CPU, timing each driver's serial set-up (entry to first cell), its
// sweep, and its serial aggregation (last cell to return). Set-up and
// aggregation are timed in process CPU time: only the driver's goroutine
// runs then.
func goldenPass(seed int64, tr *tracer, parent int) (passResult, error) {
	opts := experiments.Quick()
	opts.Seed = seed
	opts.Workers = runtime.NumCPU()
	watch := &cellWatch{tr: tr}
	rc := &experiments.RunControl{Watch: watch, KeepGoing: true}
	opts.Run = rc
	nominalVsec := (opts.Warmup + opts.Measure).Seconds()

	res := passResult{layers: map[string]float64{}}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	t0, cpu0 := time.Now(), procCPU()
	var presim, post, sweep time.Duration
	for _, d := range goldenDrivers {
		rc.StartExperiment(d.name)
		dspan := tr.begin("driver "+d.name, parent)
		watch.mu.Lock()
		watch.parent, watch.started = dspan, map[int]cellStart{}
		watch.first, watch.last = time.Time{}, time.Time{}
		watch.mu.Unlock()

		start, startCPU := time.Now(), procCPU()
		table, err := runDriver(d, opts)
		end, endCPU := time.Now(), procCPU()
		tr.end(dspan)
		if n := experiments.FailedCells(rc.TakeFailures()); n > 0 && err == nil {
			err = fmt.Errorf("%d cells failed", n)
		}
		res.outputs = append(res.outputs, output{name: d.name, digest: digest(table), err: err})

		first, last := watch.first, watch.last
		firstCPU, lastCPU := watch.firstCPU, watch.lastCPU
		if first.IsZero() { // a driver without sweep cells is all set-up
			first, last, firstCPU, lastCPU = end, end, endCPU, endCPU
		}
		tr.add("presim", dspan, start, first)
		tr.add("post", dspan, last, end)
		presim += firstCPU - startCPU
		post += endCPU - lastCPU
		sweep += last.Sub(first)
		res.layers["driver."+d.name+"_s"] = (endCPU - startCPU).Seconds()
	}
	res.cpu = (procCPU() - cpu0).Seconds()
	res.wall = time.Since(t0).Seconds()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	res.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	res.liveMB = liveHeapMB()
	res.setup = presim.Seconds()
	res.cellMs = watch.cellMs
	for _, ms := range watch.cellMs {
		res.vsecMs = append(res.vsecMs, ms/nominalVsec)
	}
	res.layers["experiments.presim_s"] = presim.Seconds()
	res.layers["experiments.post_s"] = post.Seconds()
	res.layers["parallel.cells"] = float64(len(watch.cellMs))
	res.layers["parallel.cell_s"] = watch.busy.Seconds()
	res.layers["parallel.idle_frac"] = 1 - ratio(watch.busy.Seconds(), float64(opts.Workers)*sweep.Seconds())
	if tr == nil {
		res.layers = nil
	}
	return res, nil
}

// runDriver runs one driver, reporting a panic — a failed sweep without
// keep-going, or a driver bug — as an error.
func runDriver(d goldenDriver, opts experiments.Options) (table string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return d.run(opts), nil
}
