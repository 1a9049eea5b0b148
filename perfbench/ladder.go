package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"time"

	"repro/internal/sim"
	"repro/pkg/commute"
	"repro/pkg/coup"
	"repro/pkg/coupd"
	"repro/pkg/obs"
)

// sumsTolerance bounds how far the per-spec phase times of a traced pass
// may sum away from the sweeper's own busy time (coup_sweep_busy_ns_total):
// the two clocks bracket the same work from either side of coup's worker
// loop, so they differ only by that loop's bookkeeping. The phases sum to
// each spec's wall time by construction; checkPhases is what fails when a
// phase stamp is missing and its time would move into the remainder.
const sumsTolerance = 0.02

// ladderSvcRounds fixes the traced svc-mixed window at a number of write
// rounds rather than a time, so a traced run attempts the same operations
// every time: its share of failed fault probes never varies.
const ladderSvcRounds = 128

// runLadder is the traced run. Whatever workload it is named for, it
// prints the whole per-layer ladder, each layer measured on the workload
// it is keyed to (README.md has the map): one traced pass of sim-figs and
// of sim-reps, the engine calibration kernels, a traced svc-mixed window
// of ladderSvcRounds write rounds and the coupd handler probes. Each
// workload's traced end-to-end numbers are reported too, so the cost of
// tracing can be read off.
func runLadder(seed uint64) outcome {
	var out outcome
	mark := markNoise()
	ladderSim("sim-figs", seed, &out)
	ladderSim("sim-reps", seed, &out)
	out.set("sim.engine_ns_per_op", "ns", calibrate(16, 40_000))
	out.set("sim.inline_ns_per_op", "ns", calibrate(1, 1_000_000))
	ladderSvc(seed, &out)
	out.noise = mark.since()
	return out
}

// ladderSim runs a sim workload's two set-up passes (one worker, then
// nproc workers) and one traced pass at one worker, as measured passes
// run, checks all three, and reports the layers keyed to it.
func ladderSim(name string, seed uint64, out *outcome) {
	grid := gridFor(name, seed)
	reg := obs.NewRegistry()
	sw, err := coup.NewSweeper(coup.WithParallelism(1), coup.WithSweepMetrics(reg))
	if err != nil {
		out.fail(fmt.Errorf("new sweeper: %w", err))
		return
	}
	warmup, _ := sweepPass(sw, grid, seed, false)
	ref := warmup.res
	out.fail(checkGrid(grid, ref))
	wide, err := widePass(grid, seed)
	if err != nil {
		out.fail(err)
		return
	}
	out.fail(samePass(grid, ref, wide))
	busy := reg.Counter("coup_sweep_busy_ns_total", "")
	warm := reg.Counter("coup_sweep_arena_warm_total", "")
	cold := reg.Counter("coup_sweep_arena_cold_total", "")
	busy0, warm0, cold0 := busy.Value(), warm.Value(), cold.Value()

	mark, rt := markNoise(), markRuntime()
	p, ph := sweepPass(sw, grid, seed, true)
	nz := mark.since()
	gc, pause, alloc := rt.since()
	out.attempted += int64(len(grid))
	for _, r := range p.res {
		if r.Err != nil {
			out.failed++
		}
	}
	out.fail(samePass(grid, ref, p.res))
	out.fail(checkPhases(grid, ph))
	readNs, done := newProgressReader(reg).timeReads()
	if want := 2 * int64(len(grid)); done != want {
		out.fail(fmt.Errorf("%s: progress read says %d specs done, %d ran", name, done, want))
	}

	var wall, newT, setupT, runT, validateT, wideRun float64
	var slowest float64
	var acc, wideAcc uint64
	for i, s := range ph {
		w := float64(s.done - s.start)
		wall += w
		slowest = max(slowest, w)
		newT += float64(s.made - s.start)
		setupT += float64(s.setupEnd - s.setupStart)
		runT += float64(s.validateStart - s.setupEnd)
		validateT += float64(s.done - s.validateStart)
		acc += p.res[i].Stats.Accesses
		if grid[i].fig == "wide" {
			wideRun += float64(s.validateStart - s.setupEnd)
			wideAcc += p.res[i].Stats.Accesses
		}
	}
	busyNs := float64(busy.Value() - busy0)
	gap := math.Abs(wall-busyNs) / busyNs
	if gap > sumsTolerance {
		out.fail(fmt.Errorf("%s: per-spec phases sum to %.1f ms, sweeper busy time %.1f ms (%.1f%% apart, tolerance %.0f%%)",
			name, wall/1e6, busyNs/1e6, gap*100, sumsTolerance*100))
	}
	out.set("check.sums_gap_pct."+name, "%", gap*100)
	out.set("traced.pass_s."+name, "s", p.wall.Seconds())
	out.set("traced.ops_per_s."+name, "1/s", float64(acc)/unstolen(p.wall.Seconds(), nz.stealS, 1))
	out.set("traced.op_ms."+name, "ms", geomean(p.spec)/1e6)
	out.set("obs.progress_read_us."+name, "us", readNs/1e3)
	out.set("traced.cpu_us_per_op."+name, "us", nz.cpuS*1e6/float64(acc))
	out.set("host.steal_s."+name, "s", nz.stealS)
	out.set("proc.cpu_s."+name, "s", nz.cpuS)
	addStats(out, p.res)

	switch name {
	case "sim-figs":
		out.set("coup.specs", "count", float64(len(grid)))
		out.set("coup.busy_ms", "ms", busyNs/1e6)
		out.set("coup.utilization", "ratio", busyNs/float64(p.wall.Nanoseconds()))
		out.set("coup.slowest_spec_ms", "ms", slowest/1e6)
		out.set("sim.run_ms", "ms", runT/1e6)
		out.set("sim.host_ns_per_access", "ns", runT/float64(acc))
		out.set("sim.wide_ns_per_access", "ns", wideRun/float64(wideAcc))
	case "sim-reps":
		out.set("sim.arena_warm", "count", float64(warm.Value()-warm0))
		out.set("sim.arena_cold", "count", float64(cold.Value()-cold0))
		out.set("workloads.new_ms", "ms", newT/1e6)
		out.set("workloads.setup_ms", "ms", setupT/1e6)
		out.set("workloads.validate_ms", "ms", validateT/1e6)
		out.set("sim.spec_overhead_ms", "ms", (wall-newT-setupT-runT-validateT)/1e6)
		out.set("runtime.gc_cycles.sim-reps", "count", gc)
		out.set("runtime.gc_pause_ms.sim-reps", "ms", pause)
		out.set("runtime.alloc_mb.sim-reps", "MB", alloc)
	}
}

// addStats adds a pass's simulated Stats into the sim.* sums. They are
// deterministic: a change that only speeds the simulator up leaves them
// identical.
func addStats(out *outcome, res []coup.SweepResult) {
	var s coup.Stats
	for _, r := range res {
		st := r.Stats
		s.Accesses += st.Accesses
		s.Cycles += st.Cycles
		s.CommUpdates += st.CommUpdates
		s.L1Hits += st.L1Hits
		s.MemAccesses += st.MemAccesses
		s.Invalidations += st.Invalidations
		s.FullReductions += st.FullReductions + st.PartialReductions
		s.Traffic.OffChipBytes += st.Traffic.OffChipBytes
	}
	add := func(name, unit string, v float64) {
		out.set(name, unit, out.metrics[name].Value+v)
	}
	add("sim.accesses", "count", float64(s.Accesses))
	add("sim.cycles", "count", float64(s.Cycles))
	add("sim.comm_updates", "count", float64(s.CommUpdates))
	add("sim.l1_hits", "count", float64(s.L1Hits))
	add("sim.mem_accesses", "count", float64(s.MemAccesses))
	add("sim.invalidations", "count", float64(s.Invalidations))
	add("sim.reductions", "count", float64(s.FullReductions))
	add("sim.offchip_mb", "MB", float64(s.Traffic.OffChipBytes)/(1<<20))
}

// calibrate runs a kernel of L1-resident loads through Machine.Run on a
// fresh machine of the given size and returns host ns per simulated
// access, the median of three runs. At one core the whole kernel runs
// inline; at 16 cores every access goes through the scheduler and a
// coroutine handoff whenever another core becomes earliest.
func calibrate(cores, loadsPerCore int) float64 {
	var runs []float64
	for r := 0; r < 3; r++ {
		m := sim.New(sim.DefaultConfig(cores, sim.MEUSI))
		const lines = 16
		base := m.Alloc(uint64(cores*lines*64), 64)
		t0 := time.Now()
		st := m.Run(func(c *sim.Ctx) {
			mine := base + uint64(c.Tid()*lines*64)
			for i := 0; i < loadsPerCore; i++ {
				c.Load64(mine + uint64(i%lines)*64)
			}
		})
		runs = append(runs, float64(time.Since(t0).Nanoseconds())/float64(st.Accesses))
	}
	return median(runs)
}

// ladderSvc runs a traced svc-mixed window, then prices the coupd write
// and read paths layer by layer on a separate server and registry.
func ladderSvc(seed uint64, out *outcome) {
	l := runSvcLoad(seed, func(rounds int, _ time.Duration) bool { return rounds >= ladderSvcRounds }, out)
	if l == nil {
		return
	}
	send := quantile(l.sendLat.v, 0.5) / 1e3 // us
	l.report("traced.", ".svc-mixed", out)
	out.set("traced.op_p99_ms.svc-mixed", "ms", quantile(l.sendLat.v, 0.99)/1e6)
	out.set("traced.read_p50_ms.svc-mixed", "ms", quantile(l.readLat.v, 0.5)/1e6)
	out.set("traced.read_p99_ms.svc-mixed", "ms", quantile(l.readLat.v, 0.99)/1e6)
	out.set("traced.cpu_us_per_op.svc-mixed", "us", median(l.cpuPerUpdate))
	out.set("coupd.send_ms", "ms", send/1e3)
	out.set("coupd.client_retries", "count", float64(l.env.retries))
	out.set("coupd.rejected_total", "count", l.metricsAfter["coupd_rejected_total"])
	out.set("coupd.dedup_hits_total", "count", l.metricsAfter["coupd_dedup_hits_total"])
	out.set("load.reader_late_ms", "ms", quantile(l.readLate.v, 0.99)/1e6)
	out.set("runtime.gc_cycles.svc-mixed", "count", l.gc)
	out.set("runtime.gc_pause_ms.svc-mixed", "ms", l.pause)
	out.set("runtime.alloc_mb.svc-mixed", "MB", l.allocMB)
	out.set("host.steal_s.svc-mixed", "s", l.noise.stealS)
	out.set("proc.cpu_s.svc-mixed", "s", l.noise.cpuS)

	in := l.env.in
	encode, err := encodeProbe(in)
	out.fail(err)
	hb, err := handlerProbes(in)
	out.fail(err)
	apply, err := applyProbe(in)
	out.fail(err)
	out.set("coupd.encode_us", "us", encode)
	out.set("coupd.handler_batch_us", "us", hb.batch)
	out.set("coupd.handler_bare_us", "us", hb.bare)
	out.set("coupd.dedup_us", "us", hb.batch-hb.bare)
	out.set("coupd.apply_ns", "ns", apply)
	out.set("coupd.decode_validate_us", "us", hb.bare-svcBatchLen*apply/1e3)
	out.set("coupd.handler_allocs_per_batch", "count", hb.allocs)
	out.set("coupd.handler_kb_per_batch", "KB", hb.kb)
	out.set("coupd.handler_snapshot_us", "us", hb.snapshot)
	out.set("coupd.handler_bulk_us", "us", hb.bulk)
	out.set("net.transport_us", "us", send-hb.batch-encode)
	out.set("commute.reduce_us", "us", reduceProbe(in))
}

const probeReps = 400

// encodeProbe prices the client's json.Marshal of a sequenced batch.
func encodeProbe(in *svcInputs) (float64, error) {
	var lat []float64
	for i := 0; i < probeReps; i++ {
		req := &coupd.BatchRequest{Updates: in.pool[i%len(in.pool)], Client: "probe", Seq: uint64(i + 1)}
		t0 := time.Now()
		_, err := json.Marshal(req)
		lat = append(lat, float64(time.Since(t0).Nanoseconds()))
		if err != nil {
			return 0, fmt.Errorf("encode probe: %w", err)
		}
	}
	return median(lat) / 1e3, nil
}

type handlerCost struct {
	batch, bare, snapshot, bulk float64 // us, medians
	allocs, kb                  float64 // per sequenced batch
}

// handlerProbes calls Server.ServeHTTP directly, with an in-memory
// recorder, on a server holding the same structures as svc-mixed: batches
// sequenced and bare (the same records), single and bulk snapshots.
func handlerProbes(in *svcInputs) (handlerCost, error) {
	var hc handlerCost
	srv, err := coupd.New()
	if err != nil {
		return hc, fmt.Errorf("coupd.New: %w", err)
	}
	serve := func(method, path string, body []byte) (time.Duration, error) {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		srv.ServeHTTP(rec, req)
		d := time.Since(t0)
		if rec.Code != http.StatusOK {
			return d, fmt.Errorf("handler probe %s %s: status %d: %s", method, path, rec.Code, rec.Body.String())
		}
		return d, nil
	}
	batchBody := func(i int, client string) []byte {
		req := coupd.BatchRequest{Updates: in.pool[i%len(in.pool)]}
		if client != "" {
			req.Client, req.Seq = client, uint64(i+1)
		}
		b, _ := json.Marshal(&req) // Updates hold only strings and ints
		return b
	}
	create, _ := json.Marshal(&coupd.BatchRequest{Updates: in.create})
	if _, err := serve(http.MethodPost, "/v1/batch", create); err != nil {
		return hc, err
	}
	var seqd, bare []float64
	for i := 0; i < probeReps; i++ {
		d, err := serve(http.MethodPost, "/v1/batch", batchBody(i, "handler"))
		if err != nil {
			return hc, err
		}
		seqd = append(seqd, float64(d.Nanoseconds()))
		if d, err = serve(http.MethodPost, "/v1/batch", batchBody(i, "")); err != nil {
			return hc, err
		}
		bare = append(bare, float64(d.Nanoseconds()))
	}
	hc.batch, hc.bare = median(seqd)/1e3, median(bare)/1e3

	bodies := make([][]byte, probeReps)
	for i := range bodies {
		bodies[i] = batchBody(probeReps+i, "handler")
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, b := range bodies {
		if _, err := serve(http.MethodPost, "/v1/batch", b); err != nil {
			return hc, err
		}
	}
	runtime.ReadMemStats(&m1)
	hc.allocs = float64(m1.Mallocs-m0.Mallocs) / probeReps
	hc.kb = float64(m1.TotalAlloc-m0.TotalAlloc) / probeReps / 1024

	var snap, bulk []float64
	hists := in.names[coupd.KindHist]
	for i := 0; i < probeReps; i++ {
		d, err := serve(http.MethodGet, "/v1/snapshot/"+hists[i%len(hists)], nil)
		if err != nil {
			return hc, err
		}
		snap = append(snap, float64(d.Nanoseconds()))
		if i%8 == 0 {
			if d, err = serve(http.MethodGet, "/v1/snapshot", nil); err != nil {
				return hc, err
			}
			bulk = append(bulk, float64(d.Nanoseconds()))
		}
	}
	hc.snapshot, hc.bulk = median(snap)/1e3, median(bulk)/1e3
	return hc, nil
}

// applyProbe prices Registry.Apply per update on a separate registry.
func applyProbe(in *svcInputs) (float64, error) {
	reg := coupd.NewRegistry()
	for i := range in.create {
		if err := reg.Apply(&in.create[i]); err != nil {
			return 0, fmt.Errorf("apply probe: %w", err)
		}
	}
	var passes []float64
	for r := 0; r < 5; r++ {
		n := 0
		t0 := time.Now()
		for _, batch := range in.pool {
			for i := range batch {
				if err := reg.Apply(&batch[i]); err != nil {
					return 0, fmt.Errorf("apply probe: %w", err)
				}
				n++
			}
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(passes), nil
}

// reduceProbe prices commute.Histogram.Snapshot on a histogram shaped
// like the served ones and filled with the same hist-00 updates.
func reduceProbe(in *svcInputs) float64 {
	h := commute.MustHistogram(svcHistBins)
	name := in.names[coupd.KindHist][0]
	for _, batch := range in.pool {
		for _, u := range batch {
			if u.Name != name {
				continue
			}
			d := uint64(1)
			if u.Op == "add" {
				d = uint64(u.Args[1])
			}
			h.Add(int(u.Args[0]), d)
		}
	}
	dst := make([]uint64, svcHistBins)
	var lat []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		dst = h.Snapshot(dst)
		lat = append(lat, float64(time.Since(t0).Nanoseconds()))
	}
	return median(lat) / 1e3
}
