package main

import (
	"errors"
	"fmt"

	"repro/pkg/coup"
)

// The simulator output checks. Each is computed here, apart from the
// program: conservation laws every Stats must obey, commutative-update
// counts derived from the inputs, and the paper's shapes on sim-figs.
// None compares against a stored copy of earlier output.

// checkConservation holds for every spec: every access is exactly one of
// load, store, atomic or commutative update, and — except under RMO,
// whose remote updates are satisfied at the home L4 bank rather than in
// a cache level — every access is satisfied at exactly one level.
func checkConservation(proto string, st coup.Stats) error {
	if sum := st.Loads + st.Stores + st.Atomics + st.CommUpdates; sum != st.Accesses {
		return fmt.Errorf("loads+stores+atomics+comm_updates = %d, accesses = %d", sum, st.Accesses)
	}
	if proto == "RMO" {
		return nil
	}
	if sum := st.L1Hits + st.L2Hits + st.L3Hits + st.L4Hits + st.MemAccesses; sum != st.Accesses {
		return fmt.Errorf("L1+L2+L3+L4+memory hits = %d, accesses = %d", sum, st.Accesses)
	}
	return nil
}

// hasU reports whether a protocol executes commutative updates natively
// in the private caches (COUP's update-only state).
func hasU(proto string) bool { return proto == "MEUSI" || proto == "MUSI" }

// checkCommUpdates derives the commutative-update count from the inputs
// where the workload fixes it: a shared histogram under COUP issues one
// update per pixel, the contended counter one per update per core, and
// the U-less baselines MESI and MSI turn every one into an atomic.
func checkCommUpdates(p point, st coup.Stats) error {
	var want uint64
	switch {
	case p.proto == "MESI" || p.proto == "MSI":
		want = 0
	case p.workload == "hist" && hasU(p.proto):
		want = uint64(p.params.Size)
	case p.workload == "counter" && hasU(p.proto):
		want = uint64(p.cores * p.params.Size)
	default:
		return nil
	}
	if st.CommUpdates != want {
		return fmt.Errorf("comm_updates = %d, want %d from the inputs", st.CommUpdates, want)
	}
	return nil
}

// checkShapes checks the paper's shapes on the sim-figs grid:
//   - Fig 2: COUP is at least as fast as MESI atomics and as core
//     privatization at every bin count;
//   - Fig 10: COUP beats MESI at >= 16 cores for hist, spmv, pgrank and
//     fluidanimate (bfs is excluded: the paper's gain there is small);
//   - Fig 13a: COUP is at least as fast as XADD and SNZI at >= 16 cores.
func checkShapes(grid []point, res []coup.SweepResult) error {
	type key struct {
		fig, series, proto string
		cores, bins        int
	}
	cycles := map[key]uint64{}
	for i, p := range grid {
		cycles[key{p.fig, p.series, p.proto, p.cores, p.params.Bins}] = res[i].Stats.Cycles
	}
	var errs []error
	for _, b := range fig2Bins {
		at := func(series, proto string) uint64 {
			return cycles[key{"fig2", series, proto, fig2Cores, b}]
		}
		coupC := at("COUP", "MEUSI")
		for _, other := range []struct{ series, proto string }{{"MESI-atomics", "MESI"}, {"MESI-sw-privatization", "MESI"}} {
			if oc := at(other.series, other.proto); coupC > oc {
				errs = append(errs, fmt.Errorf("fig2 %d bins: COUP %d cycles slower than %s %d", b, coupC, other.series, oc))
			}
		}
	}
	for _, p := range grid {
		if p.fig != "fig10" || p.proto != "MEUSI" || p.cores < 16 || p.series == "bfs" {
			continue
		}
		coupC := cycles[key{"fig10", p.series, "MEUSI", p.cores, p.params.Bins}]
		mesiC := cycles[key{"fig10", p.series, "MESI", p.cores, p.params.Bins}]
		if coupC >= mesiC {
			errs = append(errs, fmt.Errorf("fig10 %s %d cores: COUP/MESI = %.3f, want > 1", p.series, p.cores, float64(mesiC)/float64(coupC)))
		}
	}
	for _, c := range fig13Cores {
		if c < 16 {
			continue
		}
		coupC := cycles[key{"fig13a", "COUP", "MEUSI", c, 0}]
		for _, other := range []struct{ series, proto string }{{"XADD", "MESI"}, {"SNZI", "MESI"}} {
			if oc := cycles[key{"fig13a", other.series, other.proto, c, 0}]; coupC > oc {
				errs = append(errs, fmt.Errorf("fig13a %d cores: COUP %d cycles slower than %s %d", c, coupC, other.series, oc))
			}
		}
	}
	return errors.Join(errs...)
}

// checkGrid runs every per-spec check over a pass's results, plus the
// shape checks when the grid holds figures.
func checkGrid(grid []point, res []coup.SweepResult) error {
	var errs []error
	figs := false
	for i, p := range grid {
		r := res[i]
		where := fmt.Sprintf("%s %s/%s/%dc", p.fig, p.workload, p.proto, p.cores)
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", where, r.Err))
			continue
		}
		if err := checkConservation(p.proto, r.Stats); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", where, err))
		}
		if err := checkCommUpdates(p, r.Stats); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", where, err))
		}
		figs = figs || p.fig == "fig2"
	}
	if figs {
		if err := checkShapes(grid, res); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// samePass checks that a pass returned exactly the warm-up pass's Stats
// for every spec: parallelism and arena reuse never change results.
func samePass(grid []point, ref, res []coup.SweepResult) error {
	for i := range grid {
		if res[i].Err != nil {
			return fmt.Errorf("%s %s/%s/%dc: %w", grid[i].fig, grid[i].workload, grid[i].proto, grid[i].cores, res[i].Err)
		}
		if res[i].Stats != ref[i].Stats {
			return fmt.Errorf("%s %s/%s/%dc: pass differs from warm-up pass (cycles %d vs %d)",
				grid[i].fig, grid[i].workload, grid[i].proto, grid[i].cores, res[i].Stats.Cycles, ref[i].Stats.Cycles)
		}
	}
	return nil
}

// checkPhases checks that every phase of every spec of a traced pass was
// stamped, in order: factory call, workload built, Setup start and end,
// Validate start, result. A stamp that was never set (a wrapper method
// the simulator stopped calling) or is out of order would otherwise move
// its phase's time silently into sim.spec_overhead_ms.
func checkPhases(grid []point, ph []specPhases) error {
	for i, s := range ph {
		stamps := []struct {
			name string
			at   int64
		}{
			{"factory call", s.start}, {"workload built", s.made},
			{"Setup start", s.setupStart}, {"Setup end", s.setupEnd},
			{"Validate start", s.validateStart}, {"result", s.done},
		}
		where := fmt.Sprintf("%s %s/%s/%dc", grid[i].fig, grid[i].workload, grid[i].proto, grid[i].cores)
		for k, st := range stamps {
			if st.at <= 0 {
				return fmt.Errorf("%s: phase stamp %q never set", where, st.name)
			}
			if k > 0 && st.at < stamps[k-1].at {
				return fmt.Errorf("%s: phase stamp %q before %q", where, st.name, stamps[k-1].name)
			}
		}
	}
	return nil
}
