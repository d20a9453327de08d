package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/featspace"
	"acclaim/internal/loadgen"
	"acclaim/internal/netmodel"
	"acclaim/internal/obs"
	"acclaim/internal/rules"
	"acclaim/internal/ruleserver"
)

// rulesDir holds the committed rule fixtures the serve workloads load.
const rulesDir = "testdata/rules"

// Serve workload shape. Every closed loop uses two client workers and
// at most two connections: the host has two cores, and an MPI rank
// waits for its selection before it runs the collective.
const (
	serveWorkers    = 2
	wireBatch       = 64
	wireTenants     = 8
	reloadEvery     = 20 * time.Millisecond
	checkEvery      = 8   // one call in checkEvery is checked against the oracle
	pricedQueries   = 512 // served queries priced on the live runner for slowdown
	ingestsPerRound = 4   // whole-registry ingestions timed after each serving round
	roundTarget     = 250 * time.Millisecond
	priceJobNodes   = 16
	serveMsgExpMax  = 20
	zipfS           = 1.2 // loadgen's default tenant skew
	// latencySamples presizes the per-call latency log for a 20 s window
	// at wire speed. The log keeps every call of the window, so the live
	// heap, and with it the GC's pace, is the same from the first round
	// to the last; a log cleared every round left the heap so small that
	// GC ran constantly and set the HTTP tail.
	latencySamples = 1 << 21
)

// serveMix is the query distribution both serve workloads draw from:
// every collective some fixture covers, at job shapes the ground-truth
// runner can host.
func serveMix(tenants int) loadgen.Mix {
	m := loadgen.Mix{
		Collectives: []coll.Collective{coll.Allreduce, coll.Bcast, coll.Reduce,
			coll.Alltoall, coll.Gather, coll.ReduceScatter, coll.Scatter},
		Nodes:     []int{2, 4, 8, 16},
		PPN:       []int{1, 2, 4, 8},
		MsgExpMax: serveMsgExpMax,
	}
	if tenants > 1 {
		m.Tenants = tenants
		m.TenantSkew = loadgen.SkewZipf
		m.ZipfS = zipfS
	}
	return m
}

// mix is the workload's query distribution: every tenant over the
// wire, tenant 0 alone over HTTP.
func (w *serveWorkload) mix() loadgen.Mix {
	if w.http {
		return serveMix(1)
	}
	return serveMix(len(w.files))
}

// queryStream returns a generator of queries drawn from the mix the way
// loadgen's workers draw them: the shape, then, for a multi-tenant mix,
// a zipf-skewed tenant. The priced sample and the lookup timings thus
// weight tenants as the served traffic does.
func queryStream(rng *rand.Rand, mix loadgen.Mix) func() loadgen.Query {
	tenant := func() int { return 0 }
	if mix.Tenants > 1 {
		z := rand.NewZipf(rng, mix.ZipfS, 1, uint64(mix.Tenants-1))
		tenant = func() int { return int(z.Uint64()) }
	}
	return func() loadgen.Query {
		q := loadgen.Query{
			Coll:  mix.Collectives[rng.Intn(len(mix.Collectives))],
			Nodes: mix.Nodes[rng.Intn(len(mix.Nodes))],
			PPN:   mix.PPN[rng.Intn(len(mix.PPN))],
			Msg:   1 << uint(rng.Intn(mix.MsgExpMax+1)),
		}
		q.Tenant = tenant()
		return q
	}
}

// tenantKey names tenant i the way acclaim-loadgen does.
func tenantKey(i int) ruleserver.TenantKey {
	return ruleserver.TenantKey{Cluster: fmt.Sprintf("t%d", i), JobClass: "default", MPIVer: "default"}
}

// pricedQuery is one served query and its ground truth.
type pricedQuery struct {
	q  loadgen.Query
	ep evalPoint
}

// serveWorkload is a serve workload after setup: a registry behind a
// live transport, the oracle indexes answers are checked against, and
// the priced query sample.
type serveWorkload struct {
	http    bool
	seed    int64
	files   []string // tenant i serves files[i]
	reg     *ruleserver.Registry
	oracle  []*ruleserver.Index
	priced  []pricedQuery
	target  loadgen.Target
	checker *checkTarget
	close   func()
}

// fixtureFiles lists the committed rule fixtures, the files covering
// the most collectives first (then by name), so the hottest tenants
// serve the richest rule files.
func fixtureFiles() ([]string, error) {
	files, err := filepath.Glob(filepath.Join(rulesDir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no rule fixtures under %s", rulesDir)
	}
	tables := make(map[string]int, len(files))
	for _, path := range files {
		f, err := rules.ReadFile(path)
		if err != nil {
			return nil, err
		}
		tables[path] = len(f.Tables)
	}
	sort.Slice(files, func(i, j int) bool {
		if tables[files[i]] != tables[files[j]] {
			return tables[files[i]] > tables[files[j]]
		}
		return files[i] < files[j]
	})
	return files, nil
}

// setupServe loads the tenants, starts the server on loopback and
// prices the ground-truth sample on a simulated job.
func setupServe(httpMode bool, seed int64) (*serveWorkload, error) {
	fixtures, err := fixtureFiles()
	if err != nil {
		return nil, err
	}
	w := &serveWorkload{http: httpMode, seed: seed}
	for i := 0; i < wireTenants; i++ {
		w.files = append(w.files, fixtures[i%len(fixtures)])
	}
	if w.reg, err = w.ingest(); err != nil {
		return nil, err
	}
	for _, path := range w.files {
		f, err := rules.ReadFile(path)
		if err != nil {
			return nil, err
		}
		idx, err := ruleserver.Compile(f)
		if err != nil {
			return nil, err
		}
		w.oracle = append(w.oracle, idx)
	}
	if err := w.price(); err != nil {
		return nil, err
	}
	if err := w.start(); err != nil {
		return nil, err
	}
	return w, nil
}

// ingest reads, validates, compiles and publishes every tenant's rule
// file into a new registry.
func (w *serveWorkload) ingest() (*ruleserver.Registry, error) {
	reg := ruleserver.NewRegistry()
	for i, path := range w.files {
		if err := reg.Load(tenantKey(i), path); err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// start puts the registry behind its transport and wraps the client
// target in the answer checker.
func (w *serveWorkload) start() error {
	if w.http {
		srv, _ := w.reg.Tenant(tenantKey(0))
		ts := httptest.NewServer(ruleserver.SelectHandler(srv))
		w.target = loadgen.HTTPTarget{URL: ts.URL + "/v1/select", Client: ts.Client()}
		w.close = ts.Close
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		tcp, err := loadgen.NewTCPTarget(ln.Addr().String(), w.keys(), serveWorkers)
		if err != nil {
			ln.Close()
			return err
		}
		ws := ruleserver.NewWireServer(w.reg)
		wreg := obs.NewRegistry()
		ws.Register(wreg)
		done := make(chan struct{})
		//acclaim:goroutine-owner wire acceptor; w.close closes ln, so Serve returns
		go func() {
			defer close(done)
			_ = ws.Serve(ln) // returns net.ErrClosed once the listener closes
		}()
		w.target = tcp
		w.close = func() {
			tcp.Close()
			ln.Close()
			<-done
			// Connection handlers exit on the client's close.
			for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if v, ok := wreg.Snapshot()["wire.active_connections"].(float64); ok && v == 0 {
					break
				}
			}
		}
	}
	w.checker = &checkTarget{inner: w.target, oracle: w.oracle, offset: uint64(w.seed) % checkEvery,
		lat: make([]time.Duration, 0, latencySamples)}
	return nil
}

// price draws the ground-truth sample from the workload's query mix and
// measures every algorithm at each query's point on a simulated job.
// Like the tune workloads' jobs, the pricing job and its sample are
// fixed: the mean slowdown of a few hundred queries is dominated by its
// worst answers, and a seeded sample moved it by 7% from seed to seed.
// The workload seed draws the load instead.
func (w *serveWorkload) price() error {
	machine := cluster.Theta()
	rng := rand.New(rand.NewSource(jobSeed(0)))
	alloc, err := cluster.BestEffort(machine, rng, priceJobNodes)
	if err != nil {
		return err
	}
	env := benchmark.Baseline.Apply(netmodel.SampleEnv(rng, alloc))
	runner, err := benchmark.NewRunner(netmodel.DefaultParams(), env, alloc, benchmark.Config{Seed: jobSeed(0)})
	if err != nil {
		return err
	}
	next := queryStream(rng, w.mix())
	for i := 0; i < pricedQueries; i++ {
		q := next()
		ev, err := priceGroundTruth(runner, q.Coll, []featspace.Point{{Nodes: q.Nodes, PPN: q.PPN, MsgBytes: q.Msg}})
		if err != nil {
			return err
		}
		w.priced = append(w.priced, pricedQuery{q: q, ep: ev[0]})
	}
	return nil
}

// checkTarget forwards to the transport target, times every call, and
// compares a seeded sample of the answers with the oracle index of the
// query's tenant. A wrong answer is returned as an error, so the load
// generator counts it as a failed query.
type checkTarget struct {
	inner  loadgen.Target
	oracle []*ruleserver.Index
	offset uint64

	calls atomic.Uint64
	wrong atomic.Uint64

	mu   sync.Mutex
	lat  []time.Duration // one entry per call; every call answers the same number of queries
	from int             // start of the current round in lat
}

var errWrongAnswer = errors.New("served answer differs from the oracle index")

func (t *checkTarget) Name() string { return t.inner.Name() }

func (t *checkTarget) record(d time.Duration) {
	t.mu.Lock()
	t.lat = append(t.lat, d)
	t.mu.Unlock()
}

func (t *checkTarget) checked() bool { return (t.calls.Add(1)+t.offset)%checkEvery == 0 }

func (t *checkTarget) agrees(q loadgen.Query, alg string, ok bool) bool {
	want, wantOK := t.oracle[q.Tenant].Lookup(q.Coll, q.Nodes, q.PPN, q.Msg)
	return want == alg && wantOK == ok
}

func (t *checkTarget) Select(q loadgen.Query) (string, bool, error) {
	t0 := time.Now()
	alg, ok, err := t.inner.Select(q)
	t.record(time.Since(t0))
	if err == nil && t.checked() && !t.agrees(q, alg, ok) {
		t.wrong.Add(1)
		return "", false, errWrongAnswer
	}
	return alg, ok, err
}

func (t *checkTarget) SelectBatch(qs []loadgen.Query, res []loadgen.Result) error {
	t0 := time.Now()
	err := t.inner.(loadgen.BatchTarget).SelectBatch(qs, res)
	t.record(time.Since(t0))
	if err != nil || !t.checked() {
		return err
	}
	for i, q := range qs {
		if !t.agrees(q, res[i].Alg, res[i].OK) {
			t.wrong.Add(1)
			return errWrongAnswer
		}
	}
	return nil
}

// reset drops the latency samples of an earlier window.
func (t *checkTarget) reset() {
	t.mu.Lock()
	t.lat, t.from = t.lat[:0], 0
	t.mu.Unlock()
}

// roundQuantiles returns the p50 and p99, in microseconds, of the call
// latencies recorded since the last call, and starts a new round.
func (t *checkTarget) roundQuantiles() (p50, p99 float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	round := t.lat[t.from:]
	t.from = len(t.lat)
	return durQuantile(round, 0.50, time.Microsecond), durQuantile(round, 0.99, time.Microsecond)
}

// windowQuantiles returns the p50 and p99, in microseconds, of every
// call latency recorded since the last reset: the transport round trip
// over the whole window, traced and untraced rounds alike.
func (t *checkTarget) windowQuantiles() (p50, p99 float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return durQuantile(t.lat, 0.50, time.Microsecond), durQuantile(t.lat, 0.99, time.Microsecond)
}

// serveRun is one measurement window's outcome.
type serveRun struct {
	// Per untraced round: throughput and call-latency quantiles (us).
	// They are reported as medians over rounds, so a burst of host noise
	// moves a few entries rather than the whole window's tail.
	qps, p50, p99 []float64
	tracedQPS     []float64       // per traced round
	ingests       []time.Duration // whole-registry ingestions between rounds
	requests      uint64
	errs          uint64
	misses        uint64
	swaps         []time.Duration
	read          []time.Duration // traced reloads only: the split of each swap
	compile       []time.Duration
	swapped       []time.Duration
	slowSum       float64
	slowN         int
	attempted     int
	failed        int
}

// run drives closed-loop rounds through loadgen until the window ends.
// Over the wire, tenant 0's rule file is reloaded every reloadEvery
// alongside the reads; over HTTP, the same number of reloads runs
// between rounds, so the HTTP figures measure the handler rather than a
// second writer. Traced, every other round runs with the load
// generator's live metrics attached, so host drift during the window
// falls on traced and untraced rounds alike, and the reloads are split
// by layer.
func (w *serveWorkload) run(window time.Duration, traced bool) (*serveRun, error) {
	out := &serveRun{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var reloadErr error
	if !w.http {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tick := time.NewTicker(reloadEvery)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					if err := w.reload(out, traced); err != nil {
						reloadErr = err
						return
					}
				}
			}
		}()
	}

	batch := 1
	if !w.http {
		batch = wireBatch
	}
	cfg := loadgen.Config{
		Target:  w.checker,
		Mix:     w.mix(),
		Mode:    loadgen.Closed,
		Workers: serveWorkers,
		Batch:   batch,
	}
	live := obs.NewRegistry()
	requests := 64 * serveWorkers * batch
	w.checker.reset()
	start := time.Now()
	var err error
	for round := 0; time.Since(start) < window; round++ {
		cfg.Seed = w.seed*1_000_003 + int64(round)*serveWorkers
		cfg.Requests = requests
		cfg.Registry = nil
		if traced && round%2 == 1 {
			cfg.Registry = live
		}
		var rep *loadgen.Report
		rep, err = loadgen.Run(cfg)
		if err != nil {
			break
		}
		// Size later rounds to about roundTarget each.
		if d := time.Duration(rep.DurationNs); d > 0 {
			requests = int(float64(requests) * float64(roundTarget) / float64(d))
			// Whole batches per worker, so every call answers batch queries.
			requests = max(requests/(serveWorkers*batch), 1) * serveWorkers * batch
		}
		p50, p99 := w.checker.roundQuantiles()
		switch {
		case round == 0 && time.Since(start) < window:
			// The first round sizes the rest and warms the connections.
		case cfg.Registry != nil:
			out.tracedQPS = append(out.tracedQPS, rep.ThroughputQPS)
		default:
			out.qps = append(out.qps, rep.ThroughputQPS)
			out.p50 = append(out.p50, p50)
			out.p99 = append(out.p99, p99)
		}
		out.requests += rep.Requests
		out.errs += rep.Errors
		out.misses += rep.Misses
		// Ingestion is timed between rounds rather than in setup, so it
		// samples the same stretch of host time as the serving figures.
		for k := 0; k < ingestsPerRound && err == nil; k++ {
			t0 := time.Now()
			_, err = w.ingest()
			out.ingests = append(out.ingests, time.Since(t0))
		}
		for k := 0; w.http && k < int(roundTarget/reloadEvery) && err == nil; k++ {
			err = w.reload(out, traced)
		}
		if err != nil {
			break
		}
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return nil, err
	}
	if reloadErr != nil {
		return nil, reloadErr
	}
	return out, w.score(out)
}

// reload re-reads tenant 0's rule file and publishes it. Traced, it
// splits the reload: it times the read, a compile of the file on its
// own, and the swap (compile and publish); the publish time is the
// swap's median beyond the compile's. The compile and the swap take
// turns going first, so neither always runs on the other's warm caches.
func (w *serveWorkload) reload(out *serveRun, traced bool) error {
	key := tenantKey(0)
	if !traced {
		t0 := time.Now()
		if err := w.reg.Load(key, w.files[0]); err != nil {
			return err
		}
		out.swaps = append(out.swaps, time.Since(t0))
		return nil
	}
	t0 := time.Now()
	f, err := rules.ReadFile(w.files[0])
	if err != nil {
		return err
	}
	out.read = append(out.read, time.Since(t0))
	compile := func() error {
		t := time.Now()
		_, err := ruleserver.Compile(f)
		out.compile = append(out.compile, time.Since(t))
		return err
	}
	swap := func() error {
		t := time.Now()
		err := w.reg.Swap(key, f)
		out.swapped = append(out.swapped, time.Since(t))
		return err
	}
	first, second := compile, swap
	if len(out.read)%2 == 0 {
		first, second = swap, compile
	}
	if err := first(); err != nil {
		return err
	}
	return second()
}

// score sends the priced sample through the transport and prices the
// served selections.
func (w *serveWorkload) score(out *serveRun) error {
	for _, pq := range w.priced {
		alg, ok, err := w.target.Select(pq.q)
		out.attempted++
		if err != nil {
			out.failed++
			continue
		}
		want, wantOK := w.oracle[pq.q.Tenant].Lookup(pq.q.Coll, pq.q.Nodes, pq.q.PPN, pq.q.Msg)
		slow, priced := pq.ep.slowdown(pq.q.Coll, alg, ok)
		if alg != want || ok != wantOK || !priced {
			out.failed++
			continue
		}
		out.slowSum += slow
		out.slowN++
	}
	return nil
}

// handlerMicros times the HTTP handler alone: requests built ahead of
// time are served straight into a recorder, with no socket.
func (w *serveWorkload) handlerMicros(n int) (float64, error) {
	srv, _ := w.reg.Tenant(tenantKey(0))
	h := ruleserver.SelectHandler(srv)
	next := queryStream(rand.New(rand.NewSource(w.seed)), serveMix(1))
	bodies := make([]string, 256)
	for i := range bodies {
		q := next()
		bodies[i] = fmt.Sprintf(`{"collective":%q,"nodes":%d,"ppn":%d,"msg":%d}`, q.Coll.String(), q.Nodes, q.PPN, q.Msg)
	}
	var total time.Duration
	for i := 0; i < n; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/select", strings.NewReader(bodies[i%len(bodies)]))
		req.Header.Set("Content-Type", "application/json")
		rr := httptest.NewRecorder()
		t0 := time.Now()
		h(rr, req)
		total += time.Since(t0)
		if rr.Code != http.StatusOK {
			return 0, fmt.Errorf("handler answered %d", rr.Code)
		}
	}
	return total.Seconds() * 1e6 / float64(n), nil
}

// keys lists the workload's tenant keys in tenant-index order.
func (w *serveWorkload) keys() []ruleserver.TenantKey {
	keys := make([]ruleserver.TenantKey, len(w.files))
	for i := range keys {
		keys[i] = tenantKey(i)
	}
	return keys
}

// lookupNs times Index.Lookup alone, then Registry.Lookup (shard pick,
// counters and latency record on top), over the same query stream.
func (w *serveWorkload) lookupNs(n int) (index, registry float64) {
	next := queryStream(rand.New(rand.NewSource(w.seed)), w.mix())
	qs := make([]loadgen.Query, 4096)
	for i := range qs {
		qs[i] = next()
	}
	keys := w.keys()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		q := &qs[i%len(qs)]
		w.oracle[q.Tenant].Lookup(q.Coll, q.Nodes, q.PPN, q.Msg)
	}
	t1 := time.Now()
	for i := 0; i < n; i++ {
		q := &qs[i%len(qs)]
		w.reg.Lookup(keys[q.Tenant], q.Coll, q.Nodes, q.PPN, q.Msg)
	}
	t2 := time.Now()
	return float64(t1.Sub(t0)) / float64(n), float64(t2.Sub(t1)) / float64(n)
}

// benchServe sets the workload up setupReps times (keeping the last),
// then serves it for the window; traced, the layer probes follow.
func benchServe(httpMode bool, seed int64, window time.Duration, traced bool) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	var setups []time.Duration
	var w *serveWorkload
	for i := 0; i < setupReps; i++ {
		if w != nil {
			w.close()
		}
		t0 := time.Now()
		var err error
		if w, err = setupServe(httpMode, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	defer w.close()
	return w.bench(o, window, traced, setups)
}

func (w *serveWorkload) bench(o *outcome, window time.Duration, traced bool, setups []time.Duration) (*outcome, error) {
	before := memStats()
	r, err := w.run(window, traced)
	if err != nil {
		return nil, err
	}
	rt := runtimeSince(before)
	o.attempted += int(r.requests) + r.attempted
	o.failed += int(r.errs) + r.failed
	if wrong := w.checker.wrong.Load(); wrong > 0 {
		o.fail("%d checked calls answered differently from the oracle index", wrong)
	}
	v := o.values
	v["setup_s"] = median(seconds(setups))
	v["tune_wall_s"] = median(seconds(r.ingests))
	if r.slowN > 0 {
		v["slowdown"] = r.slowSum / float64(r.slowN)
	}
	v["qps"] = median(r.qps)
	v["p50_us"] = median(r.p50)
	v["p99_us"] = median(r.p99)
	v["swap_p50_ms"] = durQuantile(r.swaps, 0.50, time.Millisecond)
	v["swap_p90_ms"] = durQuantile(r.swaps, 0.90, time.Millisecond)
	v["peak_rss_mb"] = peakRSSMB()
	v["error_ratio"] = float64(o.failed) / float64(max(o.attempted, 1))
	v["lookup.hit_ratio"] = 1 - float64(r.misses)/float64(max(r.requests, 1))
	perSecond := 1 / window.Seconds()
	v["go.alloc_mb"] = rt.allocMB * perSecond
	v["go.gc_cycles"] = rt.gcCycles * perSecond
	v["go.gc_pause_ms"] = rt.gcPauseMs * perSecond
	if !traced {
		return o, nil
	}
	if len(r.tracedQPS) > 0 {
		v["trace.overhead_ratio"] = median(r.qps)/median(r.tracedQPS) - 1
	}
	v["swap.read_ms"] = durQuantile(r.read, 0.5, time.Millisecond)
	v["swap.compile_ms"] = durQuantile(r.compile, 0.5, time.Millisecond)
	v["swap.publish_ms"] = durQuantile(r.swapped, 0.5, time.Millisecond) - v["swap.compile_ms"]
	v["index.lookup_ns"], v["registry.lookup_ns"] = w.lookupNs(1 << 21)
	rttP50, rttP99 := w.checker.windowQuantiles()
	if w.http {
		v["http.rtt_p50_us"] = rttP50
		handler, err := w.handlerMicros(20000)
		if err != nil {
			return nil, err
		}
		v["http.handler_us"] = handler
	} else {
		v["wire.rtt_p50_us"] = rttP50
		v["wire.rtt_p99_us"] = rttP99
		v["wire.lookup_share"] = v["registry.lookup_ns"] * wireBatch / (v["wire.rtt_p50_us"] * 1e3)
	}
	return o, nil
}
