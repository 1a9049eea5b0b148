package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/pkg/coupd"
)

// svc-mixed inputs. Names are drawn Zipf-skewed within each kind, so a few
// structures of every kind are hot and the rest are touched rarely.
const (
	svcCounters    = 32
	svcHists       = 8
	svcHistBins    = 4096 // "large" histograms: reduce-on-read folds 4096 bins per shard
	svcMinMaxes    = 8
	svcRefCounts   = 8
	svcBatchLen    = 256
	svcPoolLen     = 128 // distinct batches generated from the seed, sent in turn
	svcRoundOps    = 64  // a write round: 63 data batches, then one fault probe
	svcZipfS       = 1.2
	svcReadPeriod  = 5 * time.Millisecond // open-loop reader: 200 reads/s, 2000 per 10 s window
	svcBulkEvery   = 250                  // every 250th read is a bulk snapshot
	svcSetupRounds = 5
	svcWarmSends   = 128
	svcWarmReads   = 32
)

// svcKindMix is the share of updates per kind, in percent.
var svcKindMix = []struct {
	kind  coupd.Kind
	share int
}{
	{coupd.KindHist, 40},
	{coupd.KindCounter, 30},
	{coupd.KindMinMax, 15},
	{coupd.KindRefCount, 15},
}

// svcInputs is everything svc-mixed sends, generated from the seed.
type svcInputs struct {
	names   map[coupd.Kind][]string
	create  []coupd.Update   // one record per structure, creating it
	pool    [][]coupd.Update // data batches, sent round-robin
	effects []*model         // what each pool batch does, for the reference
	created *model
}

func genSvcInputs(seed uint64) *svcInputs {
	r := rand.New(rand.NewPCG(seed, 0x5eed))
	in := &svcInputs{names: map[coupd.Kind][]string{}}
	counts := map[coupd.Kind]int{
		coupd.KindCounter: svcCounters, coupd.KindHist: svcHists,
		coupd.KindMinMax: svcMinMaxes, coupd.KindRefCount: svcRefCounts,
	}
	zipf := map[coupd.Kind]*rand.Zipf{}
	for _, k := range coupd.Kinds() {
		for i := 0; i < counts[k]; i++ {
			name := fmt.Sprintf("%s-%02d", k, i)
			in.names[k] = append(in.names[k], name)
			u := coupd.Update{Name: name, Kind: string(k)}
			switch k {
			case coupd.KindCounter, coupd.KindRefCount:
				u.Op, u.Args = "add", []int64{0}
			case coupd.KindHist:
				u.Op, u.Args, u.Bins = "add", []int64{0, 0}, svcHistBins
			case coupd.KindMinMax:
				u.Op, u.Args = "observe", []int64{0}
			}
			in.create = append(in.create, u)
		}
		zipf[k] = rand.NewZipf(r, svcZipfS, 1, uint64(counts[k]-1))
	}
	in.created = newModel()
	for _, u := range in.create {
		in.created.apply(u)
	}

	// Refcounts only drop references they hold, and never their last
	// one: the running value of every refcount over one pass of the pool
	// stays >= 1 once raised, and cycling the pool only adds to it, so no
	// count returns to zero (where a sharded RefCount escalates).
	running := map[string]int64{}
	for b := 0; b < svcPoolLen; b++ {
		batch := make([]coupd.Update, svcBatchLen)
		for i := range batch {
			pick := r.IntN(100)
			var k coupd.Kind
			for _, m := range svcKindMix {
				if pick < m.share {
					k = m.kind
					break
				}
				pick -= m.share
			}
			name := in.names[k][zipf[k].Uint64()]
			u := coupd.Update{Name: name, Kind: string(k)}
			switch k {
			case coupd.KindCounter:
				switch x := r.IntN(10); {
				case x < 5:
					u.Op = "inc"
				case x < 8:
					u.Op, u.Args = "add", []int64{r.Int64N(26) - 5}
				default:
					u.Op = "dec"
				}
			case coupd.KindHist:
				bin := r.Int64N(svcHistBins)
				if r.IntN(10) < 7 {
					u.Op, u.Args = "inc", []int64{bin}
				} else {
					u.Op, u.Args = "add", []int64{bin, 1 + r.Int64N(8)}
				}
			case coupd.KindMinMax:
				u.Op, u.Args = "observe", []int64{r.Int64N(2_000_001) - 1_000_000}
			case coupd.KindRefCount:
				switch x := r.IntN(4); {
				case x == 0 && running[name] > 1:
					u.Op = "dec"
					running[name]--
				case x == 1:
					d := 1 + r.Int64N(3)
					u.Op, u.Args = "add", []int64{d}
					running[name] += d
				default:
					u.Op = "inc"
					running[name]++
				}
			}
			batch[i] = u
		}
		eff := newModel()
		for _, u := range batch {
			eff.apply(u)
		}
		in.pool = append(in.pool, batch)
		in.effects = append(in.effects, eff)
	}
	return in
}

// model is the client-side reference: what the server's structures must
// hold, computed here from the updates sent, independently of pkg/commute.
type model struct {
	ctr  map[string]int64
	hist map[string]map[int64]uint64
	mm   map[string]*mmAgg
	ref  map[string]int64
}

type mmAgg struct {
	n        uint64
	min, max int64
}

func newModel() *model {
	return &model{ctr: map[string]int64{}, hist: map[string]map[int64]uint64{}, mm: map[string]*mmAgg{}, ref: map[string]int64{}}
}

func (m *model) apply(u coupd.Update) {
	switch coupd.Kind(u.Kind) {
	case coupd.KindCounter:
		m.ctr[u.Name] += opDelta(u)
	case coupd.KindRefCount:
		m.ref[u.Name] += opDelta(u)
	case coupd.KindHist:
		if m.hist[u.Name] == nil {
			m.hist[u.Name] = map[int64]uint64{}
		}
		d := uint64(1)
		if u.Op == "add" {
			d = uint64(u.Args[1])
		}
		m.hist[u.Name][u.Args[0]] += d
	case coupd.KindMinMax:
		a := m.mm[u.Name]
		if a == nil {
			a = &mmAgg{min: u.Args[0], max: u.Args[0]}
			m.mm[u.Name] = a
		}
		a.n++
		a.min, a.max = min(a.min, u.Args[0]), max(a.max, u.Args[0])
	}
}

func opDelta(u coupd.Update) int64 {
	switch u.Op {
	case "inc":
		return 1
	case "dec":
		return -1
	default:
		return u.Args[0]
	}
}

// addTimes folds o, applied times times, into m.
func (m *model) addTimes(o *model, times uint64) {
	if times == 0 {
		return
	}
	t := int64(times)
	for k, v := range o.ctr {
		m.ctr[k] += v * t
	}
	for k, v := range o.ref {
		m.ref[k] += v * t
	}
	for k, bins := range o.hist {
		if m.hist[k] == nil {
			m.hist[k] = map[int64]uint64{}
		}
		for b, v := range bins {
			m.hist[k][b] += v * times
		}
	}
	for k, a := range o.mm {
		have := m.mm[k]
		if have == nil {
			m.mm[k] = &mmAgg{n: a.n * times, min: a.min, max: a.max}
			continue
		}
		have.n += a.n * times
		have.min, have.max = min(have.min, a.min), max(have.max, a.max)
	}
}

// checkSnapshot compares one served structure with the reference.
func (m *model) checkSnapshot(s coupd.Snapshot) error {
	switch coupd.Kind(s.Kind) {
	case coupd.KindCounter:
		want, ok := m.ctr[s.Name]
		if !ok || s.Value != want {
			return fmt.Errorf("counter %q = %d, reference %d", s.Name, s.Value, want)
		}
	case coupd.KindRefCount:
		want, ok := m.ref[s.Name]
		if !ok || s.Value != want || s.Escalated {
			return fmt.Errorf("refcount %q = %d (escalated %v), reference %d", s.Name, s.Value, s.Escalated, want)
		}
	case coupd.KindHist:
		want, ok := m.hist[s.Name]
		if !ok || len(s.Bins) != svcHistBins {
			return fmt.Errorf("hist %q has %d bins, reference %d", s.Name, len(s.Bins), svcHistBins)
		}
		var total uint64
		for b, v := range s.Bins {
			if v != want[int64(b)] {
				return fmt.Errorf("hist %q bin %d = %d, reference %d", s.Name, b, v, want[int64(b)])
			}
			total += v
		}
		if s.Total != total {
			return fmt.Errorf("hist %q total %d, bins sum to %d", s.Name, s.Total, total)
		}
	case coupd.KindMinMax:
		want, ok := m.mm[s.Name]
		if !ok || s.N != want.n || s.Min != want.min || s.Max != want.max {
			return fmt.Errorf("minmax %q = n %d [%d, %d], reference %+v", s.Name, s.N, s.Min, s.Max, want)
		}
	default:
		return fmt.Errorf("structure %q has unknown kind %q", s.Name, s.Kind)
	}
	return nil
}

// size is the number of structures the reference holds.
func (m *model) size() int { return len(m.ctr) + len(m.ref) + len(m.hist) + len(m.mm) }

// checkBulk checks a final bulk snapshot against the reference: every
// reference structure present and exactly equal, and nothing else but the
// zero-valued counters that failed fault probes left behind.
func checkBulk(ref *model, leaked map[string]bool, bulk coupd.BulkSnapshot) error {
	seen := 0
	for _, s := range bulk.Structures {
		if leaked[s.Name] {
			if s.Kind != string(coupd.KindCounter) || s.Value != 0 {
				return fmt.Errorf("probe structure %q holds %+v; a rejected batch must apply nothing", s.Name, s)
			}
			continue
		}
		if err := ref.checkSnapshot(s); err != nil {
			return err
		}
		seen++
	}
	if seen != ref.size() || len(bulk.Structures) != seen+len(leaked) {
		return fmt.Errorf("bulk snapshot has %d structures, reference %d plus %d leaked by probes", len(bulk.Structures), ref.size(), len(leaked))
	}
	return nil
}

// svcEnv is one running server with its writer and reader connections.
type svcEnv struct {
	in      *svcInputs
	hs      *http.Server
	served  chan error
	base    string
	wtr     *http.Transport
	whc     *http.Client
	sess    *coupd.Session
	rtr     *http.Transport
	rhc     *http.Client
	sent    []uint64 // acknowledged sends per pool batch
	next    int      // next pool batch to send
	acked   int64    // acknowledged updates, including set-up
	retries int64
	probes  int
	leaked  map[string]bool
	totals  map[string]uint64 // last total read per histogram
}

func oneConn() (*http.Transport, *http.Client) {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return tr, &http.Client{Transport: tr}
}

// startSvc starts a server on a loopback listener and connects one writer
// and one reader to it.
func startSvc(in *svcInputs, seed uint64) (*svcEnv, error) {
	srv, err := coupd.New()
	if err != nil {
		return nil, fmt.Errorf("coupd.New: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	e := &svcEnv{
		in:     in,
		hs:     &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		sent:   make([]uint64, len(in.pool)),
		leaked: map[string]bool{},
		totals: map[string]uint64{},
	}
	go func() { e.served <- e.hs.Serve(ln) }()
	e.wtr, e.whc = oneConn()
	e.rtr, e.rhc = oneConn()
	e.sess = coupd.NewClient(e.base, coupd.WithHTTPClient(e.whc)).Session("writer-" + strconv.FormatUint(seed, 10))
	return e, nil
}

// close shuts the server down and waits for it to stop serving.
func (e *svcEnv) close() error {
	e.wtr.CloseIdleConnections()
	e.rtr.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		return fmt.Errorf("server shutdown: %w", err)
	}
	if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// send delivers one batch through the writer's session.
func (e *svcEnv) send(ctx context.Context, batch []coupd.Update) error {
	res, err := e.sess.Send(ctx, batch)
	if err != nil {
		return err
	}
	if res.Applied != len(batch) || res.Deduped {
		return fmt.Errorf("batch seq %d acknowledged %d of %d records (deduped %v)", res.Seq, res.Applied, len(batch), res.Deduped)
	}
	e.acked += int64(res.Applied)
	e.retries += int64(res.Attempts - 1)
	return nil
}

// sendNext sends the next pool batch.
func (e *svcEnv) sendNext(ctx context.Context) error {
	b := e.next % len(e.in.pool)
	if err := e.send(ctx, e.in.pool[b]); err != nil {
		return err
	}
	e.sent[b]++
	e.next++
	return nil
}

// errProbeLeaked marks the known fault: a rejected sequenced batch still
// created the structure its valid record named.
var errProbeLeaked = errors.New("rejected batch created a structure")

// probe sends a sequenced batch of one valid record for a fresh name and
// one bad op. It passes only if the server answers 400 and the fresh name
// still does not exist afterwards: a rejected batch applies nothing.
func (e *svcEnv) probe(ctx context.Context) error {
	e.probes++
	fresh := fmt.Sprintf("probe-%06d", e.probes)
	batch := []coupd.Update{
		{Name: fresh, Kind: string(coupd.KindCounter), Op: "inc"},
		{Name: e.in.names[coupd.KindCounter][0], Kind: string(coupd.KindCounter), Op: "bogus"},
	}
	_, err := e.sess.Send(ctx, batch)
	var remote *coupd.RemoteError
	if !errors.As(err, &remote) || remote.Status != http.StatusBadRequest {
		return fmt.Errorf("probe %s: want a 400 rejection, got %v", fresh, err)
	}
	status, _, err := e.get(ctx, e.whc, "/v1/snapshot/"+fresh)
	switch {
	case err != nil:
		return fmt.Errorf("probe %s: %w", fresh, err)
	case status == http.StatusOK:
		e.leaked[fresh] = true
		return errProbeLeaked
	case status != http.StatusNotFound:
		return fmt.Errorf("probe %s: snapshot status %d, want 404", fresh, status)
	}
	return nil
}

// get fetches path and returns the status and the whole body.
func (e *svcEnv) get(ctx context.Context, hc *http.Client, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, e.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// read is the reader's k-th request: a histogram snapshot, or every
// svcBulkEvery-th time the bulk snapshot. It checks that no histogram's
// total ever falls between successive reads.
func (e *svcEnv) read(ctx context.Context, k int) (func() error, error) {
	hists := e.in.names[coupd.KindHist]
	path := "/v1/snapshot"
	if k%svcBulkEvery != svcBulkEvery-1 {
		path += "/" + hists[k%len(hists)]
	}
	status, body, err := e.get(ctx, e.rhc, path)
	if err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("read %s: status %d", path, status)
	}
	return func() error {
		var snaps []coupd.Snapshot
		if path == "/v1/snapshot" {
			var bulk coupd.BulkSnapshot
			if err := json.Unmarshal(body, &bulk); err != nil {
				return fmt.Errorf("read %s: %w", path, err)
			}
			snaps = bulk.Structures
		} else {
			var s coupd.Snapshot
			if err := json.Unmarshal(body, &s); err != nil {
				return fmt.Errorf("read %s: %w", path, err)
			}
			snaps = []coupd.Snapshot{s}
		}
		for _, s := range snaps {
			if s.Kind == string(coupd.KindHist) {
				if err := e.checkTotal(s); err != nil {
					return err
				}
			}
		}
		return nil
	}, nil
}

// checkTotal holds a histogram read to monotone totals.
func (e *svcEnv) checkTotal(s coupd.Snapshot) error {
	var sum uint64
	for _, v := range s.Bins {
		sum += v
	}
	if sum != s.Total {
		return fmt.Errorf("hist %q: total %d, bins sum to %d", s.Name, s.Total, sum)
	}
	if s.Total < e.totals[s.Name] {
		return fmt.Errorf("hist %q: total fell from %d to %d between reads", s.Name, e.totals[s.Name], s.Total)
	}
	e.totals[s.Name] = s.Total
	return nil
}

// reference is what the server must hold after every acknowledged send.
func (e *svcEnv) reference() *model {
	ref := newModel()
	ref.addTimes(e.in.created, 1)
	for b, n := range e.sent {
		ref.addTimes(e.in.effects[b], n)
	}
	return ref
}

// finalChecks compares the final bulk snapshot with the reference and the
// server's update counter with the acknowledged updates. It returns the
// parsed /metrics page.
func (e *svcEnv) finalChecks(ctx context.Context) (map[string]float64, error) {
	status, body, err := e.get(ctx, e.rhc, "/v1/snapshot")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("final bulk snapshot: status %d, %v", status, err)
	}
	var bulk coupd.BulkSnapshot
	if err := json.Unmarshal(body, &bulk); err != nil {
		return nil, fmt.Errorf("final bulk snapshot: %w", err)
	}
	if err := checkBulk(e.reference(), e.leaked, bulk); err != nil {
		return nil, err
	}
	status, body, err = e.get(ctx, e.rhc, "/metrics")
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d, %v", status, err)
	}
	page := parseMetrics(string(body))
	if got := page["coupd_updates_total"]; int64(got) != e.acked {
		return page, fmt.Errorf("coupd_updates_total = %v, acknowledged updates = %d", got, e.acked)
	}
	return page, nil
}

// parseMetrics reads the unlabelled samples of a Prometheus text page.
func parseMetrics(page string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(page, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.ContainsRune(name, '{') {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// svcSetup generates the inputs, starts a server, creates every structure
// and warms both connections up; it does that svcSetupRounds times,
// keeping the last server, and returns the median set-up time, each net
// of steal as the window's throughput is.
func svcSetup(ctx context.Context, seed uint64) (*svcEnv, float64, error) {
	var rounds []float64
	var env *svcEnv
	for r := 0; r < svcSetupRounds; r++ {
		if env != nil {
			if err := env.close(); err != nil {
				return nil, 0, err
			}
		}
		clock := startNetClock()
		in := genSvcInputs(seed)
		var err error
		if env, err = startSvc(in, seed); err != nil {
			return nil, 0, err
		}
		if err := env.send(ctx, in.create); err != nil {
			_ = env.close() // the set-up error is the one to report
			return nil, 0, fmt.Errorf("create structures: %w", err)
		}
		for i := 0; i < svcWarmSends; i++ {
			if err := env.sendNext(ctx); err != nil {
				_ = env.close() // the set-up error is the one to report
				return nil, 0, fmt.Errorf("warm-up: %w", err)
			}
		}
		for k := 0; k < svcWarmReads; k++ {
			check, err := env.read(ctx, k)
			if err == nil {
				err = check()
			}
			if err != nil {
				_ = env.close() // the set-up error is the one to report
				return nil, 0, fmt.Errorf("warm-up: %w", err)
			}
		}
		rounds = append(rounds, clock.seconds(statCPUs()))
	}
	return env, median(rounds), nil
}

// svcLoad is what the measured window of svc-mixed produced.
type svcLoad struct {
	env          *svcEnv
	setupS       float64
	start        int64         // stamp() at the start of the window
	wall         time.Duration // window length
	sendLat      series        // ns per Session.Send of a data batch, at its start
	rounds       []round
	cpuPerUpdate []float64 // us of process CPU per update, per write round
	readLat      series    // ns, due -> end
	readLate     series    // ns, due -> start
	noise        noise
	gc, pause    float64
	allocMB      float64
	metricsAfter map[string]float64
}

// round is one write round of the measured window.
type round struct {
	at, wall, steal float64 // s: start offset in the window, length, host steal during it
	updates         int64
}

// runSvcLoad sets svc-mixed up and runs its measured window: the writer
// sends whole rounds until done(rounds, elapsed) says stop, while the
// reader reads on its open-loop schedule. Operation counts and check
// failures go to out.
func runSvcLoad(seed uint64, done func(rounds int, elapsed time.Duration) bool, out *outcome) *svcLoad {
	ctx := context.Background()
	env, setupS, err := svcSetup(ctx, seed)
	if err != nil {
		out.fail(err)
		return nil
	}
	defer func() { out.fail(env.close()) }()
	l := &svcLoad{env: env, setupS: setupS}

	reader := startOpenLoop(svcReadPeriod, func(k int) (func() error, error) { return env.read(ctx, k) })
	mark, rt := markNoise(), markRuntime()
	l.start = stamp()
	t0 := time.Now()
	for !done(len(l.rounds), time.Since(t0)) {
		r0, cpu0, steal0, acked := time.Now(), procCPUSeconds(), stealSeconds(), env.acked
		for j := 0; j < svcRoundOps-1; j++ {
			s0 := time.Now()
			err := env.sendNext(ctx)
			l.sendLat.add(s0.Sub(t0), float64(time.Since(s0).Nanoseconds()))
			out.attempted++
			if err != nil {
				out.failed++
				out.fail(err)
			}
		}
		out.attempted++
		if err := env.probe(ctx); err != nil {
			out.failed++
			if !errors.Is(err, errProbeLeaked) {
				out.fail(err)
			}
		}
		l.rounds = append(l.rounds, round{
			at: r0.Sub(t0).Seconds(), wall: time.Since(r0).Seconds(),
			steal: stealSeconds() - steal0, updates: env.acked - acked,
		})
		l.cpuPerUpdate = append(l.cpuPerUpdate, (procCPUSeconds()-cpu0)*1e6/float64(env.acked-acked))
	}
	l.wall = time.Since(t0)
	l.noise = mark.since()
	l.gc, l.pause, l.allocMB = rt.since()
	out.fail(reader.finish())
	l.readLat, l.readLate = reader.lat, reader.late
	page, err := env.finalChecks(ctx)
	out.fail(err)
	l.metricsAfter = page
	return l
}

// runSvc is the untraced run of svc-mixed.
func runSvc(seed uint64, window time.Duration) outcome {
	var out outcome
	heap := startHeapSampler()
	defer heap.stop()
	l := runSvcLoad(seed, func(_ int, elapsed time.Duration) bool { return elapsed >= window }, &out)
	if l == nil {
		return out
	}
	out.noise = l.noise
	out.set("setup_s", "s", l.setupS)
	l.report("", "", &out)
	out.set("peak_heap_mb", "MB", heap.windowPeakMB(l.start, l.wall))
	return out
}

// report sets the window's throughput and median batch latency, each named
// prefix + name + suffix. The window is cut into subWindows parts.
// Throughput is the median over the parts of updates per second of the
// time hypervisor steal left the host; the latency is the median over the
// quietParts parts with the least steal, so that steal, which lengthens
// every request queued behind a stolen CPU, moves it only when it covers
// most of the window.
func (l *svcLoad) report(prefix, suffix string, out *outcome) {
	set := func(name, unit string, v float64) { out.set(prefix+name+suffix, unit, v) }
	type part struct{ wall, steal, updates float64 }
	parts := make([]part, subWindows)
	for _, r := range l.rounds {
		p := &parts[partOf(r.at, l.wall)]
		p.wall += r.wall
		p.steal += r.steal
		p.updates += float64(r.updates)
	}
	var rates []float64
	byQuiet := make([]int, 0, subWindows)
	for k, p := range parts {
		if p.wall > 0 {
			rates = append(rates, p.updates/unstolen(p.wall, p.steal, statCPUs()))
			byQuiet = append(byQuiet, k)
		}
	}
	slices.SortStableFunc(byQuiet, func(a, b int) int {
		return cmp.Compare(parts[a].steal/parts[a].wall, parts[b].steal/parts[b].wall)
	})
	quiet := byQuiet[:min(quietParts, len(byQuiet))]
	set("ops_per_s", "1/s", median(rates))
	set("op_ms", "ms", l.sendLat.medianIn(l.wall, quiet)/1e6)
}
