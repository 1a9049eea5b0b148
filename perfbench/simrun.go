package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/sim"
	"repro/pkg/coup"
	"repro/pkg/obs"
)

const (
	// simSetupRounds is how many times a sim run sets up; setup_s is
	// their median.
	simSetupRounds = 3
	// progressReps is how many progress reads the traced run times.
	progressReps = 256
)

// epoch anchors the monotonic nanosecond stamps of the timing wrappers.
var epoch = time.Now()

func stamp() int64 { return int64(time.Since(epoch)) }

// simPass is one sweep over a grid, with per-spec wall times.
type simPass struct {
	res  []coup.SweepResult
	wall time.Duration
	spec []float64 // ns per spec, factory call to result
}

// specsFor turns a grid into coup.RunSpecs. Every spec is a Make spec:
// start(i) runs as spec i's factory is called, before its inputs are
// generated, and wrap, when set, may wrap the built workload.
func specsFor(grid []point, seed uint64, start func(i int), wrap func(i int, w coup.Workload) coup.Workload) []coup.RunSpec {
	specs := make([]coup.RunSpec, len(grid))
	for i, pt := range grid {
		specs[i] = coup.RunSpec{
			Make: func() (coup.Workload, error) {
				start(i)
				w, err := coup.NewWorkload(pt.workload, pt.params)
				if err != nil || wrap == nil {
					return w, err
				}
				return wrap(i, w), nil
			},
			Options: pt.options(seed),
		}
	}
	return specs
}

// sweepPass runs the grid once through sw, a one-worker sweeper with a
// warm arena. A spec's latency runs from its factory call to its result.
// With traced set, every workload is wrapped in timedWorkload and the
// phases of every spec are stamped. Measured passes run at one worker: on
// a 2-vCPU host, two workers make a pass's time depend on which specs
// happen to share the host's CPUs (README.md has the spreads).
func sweepPass(sw *coup.Sweeper, grid []point, seed uint64, traced bool) (simPass, []specPhases) {
	ph := make([]specPhases, len(grid))
	var wrap func(int, coup.Workload) coup.Workload
	if traced {
		wrap = func(i int, w coup.Workload) coup.Workload {
			ph[i].made = stamp()
			return timedWorkload{Workload: w, ph: &ph[i]}
		}
	}
	specs := specsFor(grid, seed, func(i int) { ph[i].start = stamp() }, wrap)
	p := simPass{spec: make([]float64, len(grid))}
	t0 := time.Now()
	p.res = sw.RunEach(specs, func(i int, _ coup.SweepResult) {
		ph[i].done = stamp()
		p.spec[i] = float64(ph[i].done - ph[i].start)
	})
	p.wall = time.Since(t0)
	return p, ph
}

// widePass runs the grid at nproc workers: beside a one-worker pass, it
// checks that parallelism never changes results. It runs on a sweeper of
// its own, dropped afterwards: which worker's arena gets which machine
// varies from run to run, and kept arenas would make the measured live
// heap vary with it.
func widePass(grid []point, seed uint64) ([]coup.SweepResult, error) {
	sw, err := coup.NewSweeper(coup.WithParallelism(nproc()))
	if err != nil {
		return nil, fmt.Errorf("new sweeper: %w", err)
	}
	return sw.Run(specsFor(grid, seed, func(int) {}, nil)), nil
}

func gridFor(name string, seed uint64) []point {
	if name == "sim-figs" {
		return figsGrid(seed)
	}
	return repsGrid(seed)
}

// simSetup builds a sweeper and the reference results: the grid's specs
// and inputs, a fresh one-worker coup.Sweeper with arenas on, its warm-up
// pass (ref) and a pass at nproc workers (wide). It repeats that
// simSetupRounds times and keeps the last. Each round is timed net of
// steal, like the measured passes: the one-worker part with one busy CPU,
// the wide pass with nproc.
func simSetup(name string, seed uint64) (sw *coup.Sweeper, reg *obs.Registry, grid []point, ref, wide []coup.SweepResult, setupS float64, err error) {
	var rounds []float64
	for r := 0; r < simSetupRounds; r++ {
		clock := startNetClock()
		grid = gridFor(name, seed)
		reg = obs.NewRegistry()
		sw, err = coup.NewSweeper(coup.WithParallelism(1), coup.WithSweepMetrics(reg))
		if err != nil {
			return nil, nil, nil, nil, nil, 0, fmt.Errorf("new sweeper: %w", err)
		}
		p, _ := sweepPass(sw, grid, seed, false)
		ref = p.res
		setup := clock.seconds(1)
		clock = startNetClock()
		if wide, err = widePass(grid, seed); err != nil {
			return nil, nil, nil, nil, nil, 0, err
		}
		rounds = append(rounds, setup+clock.seconds(nproc()))
	}
	return sw, reg, grid, ref, wide, median(rounds), nil
}

// runSim is the untraced run of sim-figs or sim-reps: set up, check the
// warm-up results and the nproc-worker pass against them, then sweep the
// grid at one worker until the window is spent, checking every pass
// against the warm-up pass and, by a progress read between passes, the
// sweep's own count of specs run.
// Throughput is a median over passes, each timed net of hypervisor
// steal; op_ms is the geometric mean over the grid of each spec's median
// latency over passes, each net of its share of its pass's steal.
func runSim(name string, seed uint64, window time.Duration) outcome {
	var out outcome
	sw, reg, grid, ref, wide, setupS, err := simSetup(name, seed)
	if err != nil {
		out.fail(err)
		return out
	}
	out.fail(checkGrid(grid, ref))
	out.fail(samePass(grid, ref, wide))

	progress := newProgressReader(reg)
	mark := markNoise()
	var passes []float64
	var peakLive uint64
	specLat := make([][]float64, len(grid)) // per spec, one sample per pass
	for t0 := time.Now(); time.Since(t0) < window; {
		steal0 := stealSeconds()
		p, _ := sweepPass(sw, grid, seed, false)
		net := unstolen(p.wall.Seconds(), stealSeconds()-steal0, 1)
		passes = append(passes, net)
		out.attempted += int64(len(grid))
		// One worker runs the specs back to back, so they share the
		// pass's steal pro rata.
		share := net / p.wall.Seconds()
		for i, r := range p.res {
			specLat[i] = append(specLat[i], p.spec[i]*share)
			if r.Err != nil {
				out.failed++
			}
		}
		out.fail(samePass(grid, ref, p.res))
		// The registry has seen the warm-up pass and every measured pass.
		if done, want := progress.read(), int64(len(grid))*int64(len(passes)+1); done != want {
			out.fail(fmt.Errorf("progress read says %d specs done, %d ran", done, want))
		}
		peakLive = max(peakLive, liveAfterGC())
	}
	out.noise = mark.since()

	// A spec's latency is its median over the passes. The grid's specs
	// span three orders of magnitude in clusters, so their median jumps
	// between clusters from run to run; their geometric mean does not.
	typical := make([]float64, len(grid))
	var perPass uint64
	for i, xs := range specLat {
		typical[i] = median(xs)
		perPass += ref[i].Stats.Accesses
	}
	out.set("setup_s", "s", setupS)
	out.set("ops_per_s", "1/s", float64(perPass)/median(passes))
	out.set("op_ms", "ms", geomean(typical)/1e6)
	out.set("peak_heap_mb", "MB", float64(peakLive)/(1<<20))
	return out
}

// progressReader makes the read cmd/coupbench -progress makes of a sweep
// every two seconds: the four sweep counters, each reduced on read over
// the workers' shards, and the progress line formatted from them.
type progressReader struct {
	specs, busy, warm, cold *obs.Counter
	line                    bytes.Buffer
}

func newProgressReader(reg *obs.Registry) *progressReader {
	return &progressReader{
		specs: reg.Counter("coup_sweep_specs_total", ""),
		busy:  reg.Counter("coup_sweep_busy_ns_total", ""),
		warm:  reg.Counter("coup_sweep_arena_warm_total", ""),
		cold:  reg.Counter("coup_sweep_arena_cold_total", ""),
	}
}

// read makes one progress read and returns the spec count it saw.
func (r *progressReader) read() int64 {
	n, w, c := r.specs.Value(), r.warm.Value(), r.cold.Value()
	rate := 0.0
	if w+c > 0 {
		rate = float64(w) / float64(w+c) * 100
	}
	r.line.Reset()
	fmt.Fprintf(&r.line, "progress: %d specs done, arena warm-hit %.0f%% (%d/%d), workers busy %v\n",
		n, rate, w, w+c, time.Duration(r.busy.Value()).Round(time.Millisecond))
	return n
}

// timeReads makes progressReps reads back to back, each timed from its
// start to its end, and returns their median in ns and the spec count the
// reads saw. The traced run takes them between passes, where they add no
// load to the sweep.
func (r *progressReader) timeReads() (medianNs float64, specs int64) {
	lat := make([]float64, progressReps)
	for i := range lat {
		t0 := time.Now()
		specs = r.read()
		lat[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(lat), specs
}

// liveAfterGC collects and returns the live heap. A sweep allocates little
// once its arenas are warm, so collections during a pass are too rare to
// sample the heap it holds; one forced between passes, outside their
// timing, measures it every pass.
func liveAfterGC() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: heapLive}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timedWorkload wraps a workload so a traced pass can split each spec's
// time into phases from outside internal/workloads: Setup, the simulation
// itself (Setup end to Validate start) and Validate plus
// CheckInvariants (Validate start to the spec's result).
type timedWorkload struct {
	coup.Workload
	ph *specPhases
}

type specPhases struct {
	start, made, setupStart, setupEnd, validateStart, done int64
}

func (w timedWorkload) Setup(m *sim.Machine) {
	w.ph.setupStart = stamp()
	w.Workload.Setup(m)
	w.ph.setupEnd = stamp()
}

func (w timedWorkload) Validate(m *sim.Machine) error {
	w.ph.validateStart = stamp()
	return w.Workload.Validate(m)
}
