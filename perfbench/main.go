// Command perfbench is the repository's end-to-end benchmark. One binary
// runs three named workloads over both tiers of the system:
//
//	sim-figs   the Fig 2, Fig 10 and Fig 13a grids plus a 512-core rung,
//	           as coup.RunSpecs through one coup.Sweeper
//	sim-reps   every registered workload x protocol on small machines,
//	           where per-spec overhead dominates
//	svc-mixed  an in-process coupd server on loopback: one closed-loop
//	           sequenced writer beside one open-loop snapshot reader
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last line of standard output is one JSON object with
// the end-to-end metrics of the named workload; with --trace 1 it holds
// the per-layer ladder instead, measured from outside every layer by
// timing calls into its public functions (see README.md). Every run
// checks the program's outputs against references computed here, prints
// its attempted and failed operation counts, and prints the host's steal
// time and the process CPU time of its measured window on the line before
// the result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what one workload run hands back to main: its operation
// counts, the first check that failed (nil when every check held), its
// metrics, and the host-noise sample of its measured window.
type outcome struct {
	attempted, failed int64
	checkErr          error
	metrics           map[string]metric
	noise             noise
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records the first failed check; later ones add nothing.
func (o *outcome) fail(err error) {
	if err != nil && o.checkErr == nil {
		o.checkErr = err
	}
}

var workloadNames = []string{"sim-figs", "sim-reps", "svc-mixed"}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 10, "length of the measured window in seconds")
		trace    = flag.Int("trace", 0, "0 prints end-to-end metrics, 1 the per-layer ladder")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be > 0 and --trace 0 or 1")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))

	if !slices.Contains(workloadNames, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have: %s)\n", *workload, strings.Join(workloadNames, ", "))
		return 2
	}

	var out outcome
	switch {
	case *trace == 1:
		out = runLadder(*seed)
	case *workload == "svc-mixed":
		out = runSvc(*seed, window)
	default:
		out = runSim(*workload, *seed, window)
	}
	if out.metrics == nil && out.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", out.checkErr)
		return 1
	}
	if out.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", out.checkErr)
	}
	fmt.Printf("host: workload=%s seed=%d trace=%d steal_s=%.3f cpu_s=%.3f window_s=%.3f\n",
		*workload, *seed, *trace, out.noise.stealS, out.noise.cpuS, out.noise.wallS)
	line, err := json.Marshal(report{
		Correct:   out.checkErr == nil,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.metrics,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// heapSampler records the live heap over the run: the heap the garbage
// collector last marked live, read from runtime/metrics (which does not
// stop the world) every few milliseconds. Unlike the heap's momentary
// size, it does not depend on when collections happen to run.
type heapSampler struct {
	stopc chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	at    []int64 // stamp() of each sample
	live  []uint64
}

const heapLive = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapLive}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.at = append(h.at, stamp())
			h.live = append(h.live, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stopc:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// peakMB returns the largest live heap sampled in [from, to), in MB.
func (h *heapSampler) peakMB(from, to int64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	var peak uint64
	for i, at := range h.at {
		if at >= from && at < to {
			peak = max(peak, h.live[i])
		}
	}
	return float64(peak) / (1 << 20)
}

// windowPeakMB is the peak live heap of a measured window that began at
// stamp start and lasted span: the median over its sub-windows.
func (h *heapSampler) windowPeakMB(start int64, span time.Duration) float64 {
	part := int64(span) / subWindows
	var peaks []float64
	for k := int64(0); k < subWindows; k++ {
		peaks = append(peaks, h.peakMB(start+k*part, start+(k+1)*part))
	}
	return median(peaks)
}

// stop ends sampling.
func (h *heapSampler) stop() {
	close(h.stopc)
	<-h.done
}

// noise is the host-noise context of a measured window: hypervisor steal
// (from /proc/stat, read only) and the process's own CPU time.
type noise struct {
	stealS, cpuS, wallS float64
}

type noiseMark struct {
	steal, cpu float64
	t          time.Time
}

func markNoise() noiseMark {
	return noiseMark{steal: stealSeconds(), cpu: procCPUSeconds(), t: time.Now()}
}

func (m noiseMark) since() noise {
	return noise{
		stealS: stealSeconds() - m.steal,
		cpuS:   procCPUSeconds() - m.cpu,
		wallS:  time.Since(m.t).Seconds(),
	}
}

// runtimeMark is a runtime/metrics snapshot for GC and allocation deltas.
type runtimeMark struct {
	gcCycles   uint64
	allocBytes uint64
	pauses     *metrics.Float64Histogram
}

var runtimeNames = []string{"/gc/cycles/total:gc-cycles", "/gc/heap/allocs:bytes", "/gc/pauses:seconds"}

func markRuntime() runtimeMark {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeMark{gcCycles: s[0].Value.Uint64(), allocBytes: s[1].Value.Uint64(), pauses: s[2].Value.Float64Histogram()}
}

// since returns GC cycles, summed GC pause (ms, from bucket midpoints)
// and allocated MB since the mark.
func (m runtimeMark) since() (gcCycles, pauseMs, allocMB float64) {
	now := markRuntime()
	var pause float64
	for i, c := range now.pauses.Counts {
		d := c - m.pauses.Counts[i]
		if d == 0 {
			continue
		}
		lo, hi := now.pauses.Buckets[i], now.pauses.Buckets[i+1]
		if math.IsInf(hi, 1) { // the open top bucket counts at its floor
			hi = lo
		}
		if math.IsInf(lo, -1) {
			lo = hi
		}
		pause += float64(d) * (lo + hi) / 2
	}
	return float64(now.gcCycles - m.gcCycles), pause * 1e3, float64(now.allocBytes-m.allocBytes) / (1 << 20)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted and is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(i)
	return s[i]*(1-f) + s[i+1]*f
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// geomean returns the geometric mean of positive xs.
func geomean(xs []float64) float64 {
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func nproc() int { return runtime.GOMAXPROCS(0) }
