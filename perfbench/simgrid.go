package main

import (
	"repro/pkg/coup"
)

// point is one simulation of a grid: what runs, on which machine, and the
// facts the output checks need to know about it.
type point struct {
	fig      string // "fig2", "fig10", "fig13a", "wide" or "reps"
	series   string // figure series: "COUP", "MESI-atomics", "XADD", ...
	workload string // registered workload name
	proto    string
	cores    int
	params   coup.WorkloadParams
	small    bool // small caches (the internal/workloads golden shapes)
}

// options builds the machine options; the run seed goes into every spec.
func (p point) options(seed uint64) []coup.Option {
	opts := []coup.Option{
		coup.WithCores(p.cores),
		coup.WithProtocol(p.proto),
		coup.WithSeed(seed),
	}
	if p.small {
		opts = append(opts,
			coup.WithL2(4<<10, 8),
			coup.WithL3PerChip(64<<10),
			coup.WithL4PerChip(256<<10),
		)
	}
	return opts
}

// mix derives a nonzero per-purpose seed from the run seed (splitmix64),
// so the workloads' input generators never see 0, which means "canonical
// seed" to them.
func mix(seed, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt*0xbf58476d1ce4e5b9 + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// Grid sizes. The figure grids run at a fixed fraction of the internal/exp
// Scale 1.0 inputs, so a one-worker pass lasts 2-3 s on a 2-vCPU host and a
// 10 s window holds several passes.
const (
	figHistPixels    = 12_000 // Fig 2 / Fig 10 hist input (exp: 240k at Scale 1)
	figSpmvN         = 800
	figGraphScale    = 10
	figFluidSide     = 32
	figRefUpdates    = 400 // Fig 13a updates per thread (exp: 8192 at Scale 1)
	figRefCounters   = 1024
	wideCores        = 512
	wideCounterSize  = 40  // counter updates per thread on the 512-core rung
	wideRefUpdates   = 40  // refcount updates per thread on the 512-core rung
	wideRefCounters  = 256 // refcount counters on the 512-core rung
	fig2Cores        = 64
	repsSeedsPerSpec = 5
	repsFluidSide    = 16 // fluid reads Size as its grid side; 72 would be most of the pass
)

var (
	fig2Bins   = []int{32, 128, 512, 2048, 8192}
	fig10Cores = []int{1, 16, 64}
	fig13Cores = []int{1, 16, 64}
	repsCores  = []int{1, 4, 17}
)

// figsGrid enumerates sim-figs: Fig 2 (hist x bins x {COUP, MESI
// atomics, MESI core privatization} at 64 cores), Fig 10 (five apps x
// core sweep x {MESI, MEUSI}), Fig 13a (refcount: XADD, COUP, SNZI) and
// one 512-core rung of counter and refcount under MESI and MEUSI, the
// only specs that take the >256-core scheduler.
func figsGrid(seed uint64) []point {
	var g []point
	histIn := func(bins int) coup.WorkloadParams {
		return coup.WorkloadParams{Size: figHistPixels, Bins: bins, Seed: mix(seed, 2)}
	}
	for _, b := range fig2Bins {
		g = append(g,
			point{fig: "fig2", series: "COUP", workload: "hist", proto: "MEUSI", cores: fig2Cores, params: histIn(b)},
			point{fig: "fig2", series: "MESI-atomics", workload: "hist", proto: "MESI", cores: fig2Cores, params: histIn(b)},
			point{fig: "fig2", series: "MESI-sw-privatization", workload: "hist-priv-core", proto: "MESI", cores: fig2Cores, params: histIn(b)},
		)
	}
	apps := []struct {
		series, workload string
		params           coup.WorkloadParams
	}{
		{"hist", "hist", histIn(512)},
		{"spmv", "spmv", coup.WorkloadParams{Size: figSpmvN, NNZPerCol: 24, Seed: mix(seed, 3)}},
		{"pgrank", "pgrank", coup.WorkloadParams{Scale: figGraphScale, EdgeFactor: 12, Iters: 2, Seed: mix(seed, 4)}},
		{"bfs", "bfs", coup.WorkloadParams{Scale: figGraphScale, EdgeFactor: 10, Seed: mix(seed, 5)}},
		{"fluidanimate", "fluid", coup.WorkloadParams{Size: figFluidSide, Iters: 3, Seed: mix(seed, 6)}},
	}
	for _, a := range apps {
		for _, c := range fig10Cores {
			for _, proto := range []string{"MESI", "MEUSI"} {
				g = append(g, point{fig: "fig10", series: a.series, workload: a.workload, proto: proto, cores: c, params: a.params})
			}
		}
	}
	ref := coup.WorkloadParams{Counters: figRefCounters, Size: figRefUpdates, Seed: mix(seed, 7)}
	for _, c := range fig13Cores {
		g = append(g,
			point{fig: "fig13a", series: "XADD", workload: "refcount", proto: "MESI", cores: c, params: ref},
			point{fig: "fig13a", series: "COUP", workload: "refcount", proto: "MEUSI", cores: c, params: ref},
			point{fig: "fig13a", series: "SNZI", workload: "refcount-snzi", proto: "MESI", cores: c, params: ref},
		)
	}
	for _, proto := range []string{"MESI", "MEUSI"} {
		g = append(g,
			point{fig: "wide", series: "counter", workload: "counter", proto: proto, cores: wideCores,
				params: coup.WorkloadParams{Size: wideCounterSize, Seed: mix(seed, 8)}},
			point{fig: "wide", series: "refcount", workload: "refcount", proto: proto, cores: wideCores,
				params: coup.WorkloadParams{Counters: wideRefCounters, Size: wideRefUpdates, Seed: mix(seed, 9)}},
		)
	}
	return g
}

// repsParams shrinks every workload to the internal/workloads golden-grid
// sizes; only the input seed varies.
func repsParams(seed uint64) coup.WorkloadParams {
	return coup.WorkloadParams{
		Size:            72,
		Bins:            64,
		Scale:           6,
		EdgeFactor:      4,
		Iters:           2,
		Counters:        64,
		UpdatesPerEpoch: 50,
		NNZPerCol:       4,
		Seed:            seed,
	}
}

// repsGrid enumerates sim-reps: every registered workload x every
// registered protocol x {1, 4, 17} cores with small caches x several
// input seeds, at tiny inputs.
func repsGrid(seed uint64) []point {
	var g []point
	for r := 0; r < repsSeedsPerSpec; r++ {
		params := repsParams(mix(seed, uint64(100+r)))
		for _, w := range coup.WorkloadNames() {
			for _, proto := range coup.ProtocolNames() {
				for _, c := range repsCores {
					p := point{fig: "reps", series: w, workload: w, proto: proto, cores: c, params: params, small: true}
					if w == "fluid" {
						p.params.Size = repsFluidSide
					}
					g = append(g, p)
				}
			}
		}
	}
	return g
}
