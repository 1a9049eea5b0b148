package main

import (
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/pkg/coup"
	"repro/pkg/coupd"
)

// Every output check must fail on a corrupted input, so that none of them
// passes vacuously.

func goodStats() coup.Stats {
	return coup.Stats{
		Accesses: 100, Loads: 40, Stores: 20, Atomics: 10, CommUpdates: 30,
		L1Hits: 70, L2Hits: 10, L3Hits: 8, L4Hits: 7, MemAccesses: 5,
	}
}

func TestConservationCatchesBrokenStats(t *testing.T) {
	if err := checkConservation("MEUSI", goodStats()); err != nil {
		t.Fatalf("consistent stats rejected: %v", err)
	}
	ops := goodStats()
	ops.Loads++
	if checkConservation("MEUSI", ops) == nil {
		t.Error("operation mix summing past accesses passed")
	}
	hits := goodStats()
	hits.L2Hits--
	if checkConservation("MESI", hits) == nil {
		t.Error("hit levels summing short of accesses passed")
	}
	if err := checkConservation("RMO", hits); err != nil {
		t.Errorf("RMO is exempt from the hit-level law, got %v", err)
	}
}

func TestCommUpdatesDerivedFromInputs(t *testing.T) {
	hist := point{workload: "hist", proto: "MEUSI", cores: 64, params: coup.WorkloadParams{Size: 1200}}
	ctr := point{workload: "counter", proto: "MUSI", cores: 4, params: coup.WorkloadParams{Size: 50}}
	mesi := point{workload: "spmv", proto: "MESI", cores: 16}
	for _, c := range []struct {
		p          point
		good, fake uint64
	}{
		{hist, 1200, 1199},
		{ctr, 200, 201},
		{mesi, 0, 1},
	} {
		if err := checkCommUpdates(c.p, coup.Stats{CommUpdates: c.good}); err != nil {
			t.Errorf("%s/%s: correct count rejected: %v", c.p.workload, c.p.proto, err)
		}
		if checkCommUpdates(c.p, coup.Stats{CommUpdates: c.fake}) == nil {
			t.Errorf("%s/%s: comm_updates %d passed, want %d", c.p.workload, c.p.proto, c.fake, c.good)
		}
	}
}

// paperShapes gives every sim-figs spec cycles that follow the paper:
// COUP fastest in every comparison the shape checks make.
func paperShapes(grid []point) []coup.SweepResult {
	res := make([]coup.SweepResult, len(grid))
	for i, p := range grid {
		c := uint64(1000)
		if p.proto == "MEUSI" {
			c = 500
		}
		res[i].Stats.Cycles = c
	}
	return res
}

func TestShapesCatchAtomicsBeatingCOUP(t *testing.T) {
	grid := figsGrid(1)
	if err := checkShapes(grid, paperShapes(grid)); err != nil {
		t.Fatalf("paper-shaped results rejected: %v", err)
	}
	for _, c := range []struct {
		fig, series, proto string
		cores              int
	}{
		{"fig2", "MESI-atomics", "MESI", fig2Cores},
		{"fig2", "MESI-sw-privatization", "MESI", fig2Cores},
		{"fig10", "pgrank", "MESI", 16},
		{"fig13a", "SNZI", "MESI", 64},
	} {
		res := paperShapes(grid)
		for i, p := range grid {
			if p.fig == c.fig && p.series == c.series && p.proto == c.proto && p.cores == c.cores {
				res[i].Stats.Cycles = 400 // beats COUP's 500
				break
			}
		}
		if checkShapes(grid, res) == nil {
			t.Errorf("%s: %s beating COUP at %d cores passed", c.fig, c.series, c.cores)
		}
	}
	// bfs is excluded from the Fig 10 shape: MESI may match COUP there.
	res := paperShapes(grid)
	for i, p := range grid {
		if p.fig == "fig10" && p.series == "bfs" {
			res[i].Stats.Cycles = 500
		}
	}
	if err := checkShapes(grid, res); err != nil {
		t.Errorf("bfs parity rejected: %v", err)
	}
}

func TestSamePassCatchesDrift(t *testing.T) {
	grid := []point{{fig: "reps", workload: "hist", proto: "MSI", cores: 4}}
	ref := []coup.SweepResult{{Stats: goodStats()}}
	if err := samePass(grid, ref, []coup.SweepResult{{Stats: goodStats()}}); err != nil {
		t.Fatalf("identical pass rejected: %v", err)
	}
	drift := goodStats()
	drift.Invalidations++
	if samePass(grid, ref, []coup.SweepResult{{Stats: drift}}) == nil {
		t.Error("a pass with one counter off passed")
	}
}

func TestPhasesCatchMissingOrDisorderedStamp(t *testing.T) {
	grid := repsGrid(1)[:2]
	sw, err := coup.NewSweeper(coup.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	p, ph := sweepPass(sw, grid, 1, true)
	for i, r := range p.res {
		if r.Err != nil {
			t.Fatalf("spec %d: %v", i, r.Err)
		}
	}
	if err := checkPhases(grid, ph); err != nil {
		t.Fatalf("phases of a real traced pass rejected: %v", err)
	}
	missing := slices.Clone(ph)
	missing[1].validateStart = 0
	if err := checkPhases(grid, missing); err == nil || !strings.Contains(err.Error(), "never set") {
		t.Errorf("a spec whose Validate was never stamped: got %v", err)
	}
	swapped := slices.Clone(ph)
	swapped[0].setupStart, swapped[0].setupEnd = swapped[0].setupEnd, swapped[0].setupStart-1
	if checkPhases(grid, swapped) == nil {
		t.Error("a spec whose Setup ended before it started passed")
	}
}

// served turns a reference model into the bulk snapshot a correct server
// returns for it.
func served(m *model) coupd.BulkSnapshot {
	var b coupd.BulkSnapshot
	for name, v := range m.ctr {
		b.Structures = append(b.Structures, coupd.Snapshot{Name: name, Kind: "counter", Value: v})
	}
	for name, v := range m.ref {
		b.Structures = append(b.Structures, coupd.Snapshot{Name: name, Kind: "refcount", Value: v})
	}
	for name, a := range m.mm {
		b.Structures = append(b.Structures, coupd.Snapshot{Name: name, Kind: "minmax", N: a.n, Min: a.min, Max: a.max})
	}
	for name, bins := range m.hist {
		s := coupd.Snapshot{Name: name, Kind: "hist", Bins: make([]uint64, svcHistBins)}
		for bin, v := range bins {
			s.Bins[bin] = v
			s.Total += v
		}
		b.Structures = append(b.Structures, s)
	}
	return b
}

func svcReference(t *testing.T) *model {
	t.Helper()
	in := genSvcInputs(7)
	ref := newModel()
	ref.addTimes(in.created, 1)
	ref.addTimes(in.effects[0], 3)
	ref.addTimes(in.effects[1], 1)
	return ref
}

func TestBulkCheckCatchesOffByOne(t *testing.T) {
	ref := svcReference(t)
	if err := checkBulk(ref, nil, served(ref)); err != nil {
		t.Fatalf("exact snapshot rejected: %v", err)
	}
	for _, kind := range []string{"counter", "refcount", "minmax", "hist"} {
		bulk := served(ref)
		for i := range bulk.Structures {
			s := &bulk.Structures[i]
			if s.Kind != kind {
				continue
			}
			switch kind {
			case "counter", "refcount":
				s.Value++
			case "minmax":
				s.N++
			case "hist":
				s.Bins[17]++
				s.Total++
			}
			break
		}
		if checkBulk(ref, nil, bulk) == nil {
			t.Errorf("%s off by one passed", kind)
		}
	}
	missing := served(ref)
	missing.Structures = missing.Structures[1:]
	if checkBulk(ref, nil, missing) == nil {
		t.Error("a missing structure passed")
	}
}

func TestBulkCheckHoldsProbeLeftoversToZero(t *testing.T) {
	ref := svcReference(t)
	leaked := map[string]bool{"probe-000001": true}
	bulk := served(ref)
	bulk.Structures = append(bulk.Structures, coupd.Snapshot{Name: "probe-000001", Kind: "counter"})
	if err := checkBulk(ref, leaked, bulk); err != nil {
		t.Fatalf("zero-valued probe leftover rejected: %v", err)
	}
	bulk.Structures[len(bulk.Structures)-1].Value = 1
	if checkBulk(ref, leaked, bulk) == nil {
		t.Error("a probe leftover holding the rejected record's update passed")
	}
	if checkBulk(ref, nil, bulk) == nil {
		t.Error("an unexpected structure passed")
	}
}

func TestTotalsNeverFall(t *testing.T) {
	e := &svcEnv{totals: map[string]uint64{}}
	read := func(total uint64) coupd.Snapshot {
		return coupd.Snapshot{Name: "hist-00", Kind: "hist", Bins: []uint64{total}, Total: total}
	}
	for _, v := range []uint64{3, 3, 9} {
		if err := e.checkTotal(read(v)); err != nil {
			t.Fatalf("rising totals rejected: %v", err)
		}
	}
	if e.checkTotal(read(8)) == nil {
		t.Error("a falling total passed")
	}
	bad := read(10)
	bad.Total = 11
	if e.checkTotal(bad) == nil {
		t.Error("a total that is not the sum of its bins passed")
	}
}

func TestInputsComeFromTheSeed(t *testing.T) {
	a, b, c := genSvcInputs(3), genSvcInputs(3), genSvcInputs(4)
	if !reflect.DeepEqual(a.pool, b.pool) || !reflect.DeepEqual(figsGrid(3), figsGrid(3)) || !reflect.DeepEqual(repsGrid(3), repsGrid(3)) {
		t.Error("the same seed gave different inputs")
	}
	if reflect.DeepEqual(a.pool, c.pool) || reflect.DeepEqual(figsGrid(3), figsGrid(4)) || reflect.DeepEqual(repsGrid(3), repsGrid(4)) {
		t.Error("different seeds gave the same inputs")
	}
}

func TestParseMetrics(t *testing.T) {
	page := "# HELP coupd_updates_total Update records applied.\n# TYPE coupd_updates_total counter\ncoupd_updates_total 512\ncoupd_reduce_ns_bucket{le=\"1\"} 0\n"
	got := parseMetrics(page)
	if got["coupd_updates_total"] != 512 || len(got) != 1 {
		t.Errorf("parseMetrics = %v", got)
	}
}

// TestSvcRoundEndToEnd runs two write rounds against a real server and
// every svc-mixed check on them.
func TestSvcRoundEndToEnd(t *testing.T) {
	var out outcome
	l := runSvcLoad(5, func(rounds int, _ time.Duration) bool { return rounds >= 2 }, &out)
	if l == nil {
		t.Fatalf("set-up failed: %v", out.checkErr)
	}
	if out.checkErr != nil {
		t.Fatalf("checks failed: %v", out.checkErr)
	}
	if out.attempted != 2*svcRoundOps || out.failed > 2 {
		t.Errorf("attempted %d failed %d, want %d attempted and at most the 2 probes failed", out.attempted, out.failed, 2*svcRoundOps)
	}
	if !strings.HasPrefix(l.env.base, "http://127.0.0.1:") {
		t.Errorf("server not on loopback: %s", l.env.base)
	}
}

// TestReportDiscountsSteal: steal over most of the window moves neither
// the throughput (timed net of steal) nor the latencies (taken from the
// quietest fifths).
func TestReportDiscountsSteal(t *testing.T) {
	l := &svcLoad{wall: 10 * time.Second}
	for i := 0; i < 100; i++ {
		at := float64(i) / 10 // 100 rounds of 0.1 s
		r := round{at: at, wall: 0.1, updates: 1000}
		lat := 1e6 // 1 ms
		if partOf(at, l.wall) >= 2 {
			// Half of every CPU stolen: the round takes twice as long
			// and its requests wait.
			r.wall, r.steal, lat = 0.2, 0.1*float64(statCPUs()), 5e6
		}
		l.rounds = append(l.rounds, r)
		l.sendLat.add(time.Duration(at*float64(time.Second)), lat)
		l.readLat.add(time.Duration(at*float64(time.Second)), lat)
	}
	var out outcome
	l.report("", "", &out)
	if got := out.metrics["ops_per_s"].Value; math.Abs(got-10_000) > 1e-6 {
		t.Errorf("ops_per_s = %v, want 10000", got)
	}
	if got := out.metrics["op_ms"].Value; got != 1 {
		t.Errorf("op_ms = %v, want 1", got)
	}
}
