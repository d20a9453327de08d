package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"acclaim/internal/autotune"
	"acclaim/internal/benchmark"
	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/core"
	"acclaim/internal/featspace"
	"acclaim/internal/forest"
	"acclaim/internal/heuristic"
	"acclaim/internal/netmodel"
	"acclaim/internal/obs"
	"acclaim/internal/rules"
	"acclaim/internal/ruleserver"
)

// tuneSpec sizes one tune workload: every job of the workload tunes
// the same collective list on its own allocation.
type tuneSpec struct {
	nodes, ppn int
	colls      []coll.Collective
	jobs       int
}

var (
	tuneFitSpec = tuneSpec{nodes: 16, ppn: 4, jobs: 3,
		colls: []coll.Collective{coll.Bcast, coll.Allreduce, coll.Allgather, coll.Reduce}}
	tuneCollectSpec = tuneSpec{nodes: 32, ppn: 8, jobs: 3,
		colls: []coll.Collective{coll.Alltoall, coll.Allgather}}
)

const (
	evalBands    = 2       // message-size bands of the evaluation set (see evalPoints)
	evalBatch    = 64      // served evaluation lookups per timed batch
	serveLookups = 1 << 19 // served evaluation lookups per job and rep
	publishes    = 128     // times each job's tuned file is published
)

// evalPoint is one ground-truth entry: every algorithm's measured time
// at a point, and the best of them.
type evalPoint struct {
	p     featspace.Point
	times map[string]float64
	best  float64
}

// slowdown prices a served answer at the point against the best
// algorithm there. A miss, or a rule naming an algorithm the library
// does not implement, runs the library's default selection, as an MPI
// library does with a rule it cannot use. ok is false when the
// algorithm that runs has no measured time.
func (ep *evalPoint) slowdown(c coll.Collective, alg string, hit bool) (s float64, ok bool) {
	if _, known := coll.AlgIndex(c, alg); !hit || !known {
		alg = heuristic.Select(c, ep.p)
	}
	t, ok := ep.times[alg]
	return t / ep.best, ok
}

// job is one simulated job's fixed inputs: its allocation's runner and
// the ground truth its served selections are scored against.
type job struct {
	seed   int64
	runner *benchmark.Runner
	eval   map[coll.Collective][]evalPoint
	key    ruleserver.TenantKey
}

// tuneWorkload is a tune workload after setup.
type tuneWorkload struct {
	spec tuneSpec
	jobs []*job
	// mutate, when set, corrupts each compiled job's rule file before the
	// correctness checks run; tests use it to prove the checks fail.
	mutate func(*rules.File)
}

// The jobs are fixed: job i always has seed i+1. Drawing the jobs from
// the workload seed changes how long tuning takes to converge by more
// than 20% from seed to seed, which would drown any code change in
// tune_wall_s; the workload seed draws the evaluation sets instead.
func jobSeed(i int) int64 { return int64(i) + 1 }

// setupTune builds every job: allocation, environment and runner exactly
// as cmd/acclaim does, then prices the evaluation set on that runner.
func setupTune(spec tuneSpec, seed int64) (*tuneWorkload, error) {
	w := &tuneWorkload{spec: spec}
	machine := cluster.Theta()
	topo, err := netmodel.TopologyByName("dragonfly", machine)
	if err != nil {
		return nil, err
	}
	for i := 0; i < spec.jobs; i++ {
		s := jobSeed(i)
		rng := rand.New(rand.NewSource(s))
		alloc, err := cluster.BestEffort(machine, rng, spec.nodes)
		if err != nil {
			return nil, err
		}
		env := benchmark.Baseline.Apply(netmodel.SampleEnv(rng, alloc))
		runner, err := benchmark.NewRunner(netmodel.DefaultParams(), env, alloc, benchmark.Config{Seed: s})
		if err != nil {
			return nil, err
		}
		runner.Topology = topo
		j := &job{seed: s, runner: runner, eval: map[coll.Collective][]evalPoint{},
			key: ruleserver.TenantKey{Cluster: "theta-sim", JobClass: fmt.Sprintf("job%d", i), MPIVer: "default"}}
		erng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		for _, c := range spec.colls {
			pts := evalPoints(erng, space(spec), runner.MaxNodes())
			ev, err := priceGroundTruth(runner, c, pts)
			if err != nil {
				return nil, err
			}
			j.eval[c] = ev
		}
		w.jobs = append(w.jobs, j)
	}
	return w, nil
}

// space is the production tuner's grid for a job of this size.
func space(spec tuneSpec) featspace.Space {
	return featspace.P2Grid(spec.nodes, spec.ppn, 8, 1<<20)
}

// evalPoints draws the evaluation set stratified by job shape and
// message size: for every (nodes, ppn) of the grid, one grid point from
// each of evalBands bands of message sizes, then one point whose size
// is a random non-power-of-two neighbour of one of those. Pricing a
// point costs more the more ranks and bytes it has; a plain random
// sample left that cost, and so setup_s, to the seed, which moved it
// by 2x.
func evalPoints(rng *rand.Rand, sp featspace.Space, maxNodes int) []featspace.Point {
	var out []featspace.Point
	band := len(sp.Msgs) / evalBands
	shape := 0
	for _, n := range sp.Nodes {
		for _, ppn := range sp.PPNs {
			if n > maxNodes || n*ppn < 2 {
				continue
			}
			drawn := make([]featspace.Point, evalBands)
			for b := range drawn {
				drawn[b] = featspace.Point{Nodes: n, PPN: ppn, MsgBytes: sp.Msgs[b*band+rng.Intn(band)]}
			}
			p := drawn[shape%evalBands]
			p.MsgBytes = featspace.NonP2Near(rng, p.MsgBytes)
			out = append(append(out, drawn...), p)
			shape++
		}
	}
	return out
}

// priceGroundTruth measures every algorithm of c at every point on the
// live runner.
func priceGroundTruth(r *benchmark.Runner, c coll.Collective, pts []featspace.Point) ([]evalPoint, error) {
	out := make([]evalPoint, 0, len(pts))
	for _, p := range pts {
		ep := evalPoint{p: p, times: map[string]float64{}}
		for _, alg := range coll.AlgorithmNames(c) {
			m, err := r.Run(benchmark.Spec{Coll: c, Alg: alg, Point: p})
			if err != nil {
				return nil, fmt.Errorf("ground truth %v/%s at %v: %w", c, alg, p, err)
			}
			ep.times[alg] = m.MeanTime
			if ep.best == 0 || m.MeanTime < ep.best {
				ep.best = m.MeanTime
			}
		}
		out = append(out, ep)
	}
	return out, nil
}

// checkEvalSet asserts the evaluation set is usable: non-empty for every
// collective, with non-power-of-two message sizes in it.
func (w *tuneWorkload) checkEvalSet() error {
	for _, j := range w.jobs {
		for _, c := range w.spec.colls {
			nonP2 := 0
			for _, ep := range j.eval[c] {
				if !featspace.IsP2(ep.p.MsgBytes) {
					nonP2++
				}
			}
			if len(j.eval[c]) == 0 || nonP2 == 0 {
				return fmt.Errorf("job %d %v: evaluation set has %d points, %d non-P2", j.seed, c, len(j.eval[c]), nonP2)
			}
		}
	}
	return nil
}

// tuneProbe is what a traced rep attaches; nil fields mean untraced.
type tuneProbe struct {
	rec     obs.Recorder
	reg     *obs.Registry
	backend *timedBackend
}

// tuneRep is one rep's outcome over all jobs of the workload.
type tuneRep struct {
	wall      time.Duration // allocation to compiled rule file, summed over jobs
	machineUs float64       // simulated collection time
	slowSum   float64       // summed slowdown over served evaluation selections
	slowN     int
	rounds    int
	samples   int
	scored    int // candidates scored, summed over rounds
	rules     int
	// Per job: quantiles of its publish times, and the throughput and
	// batch-latency quantiles of serving its evaluation set. They are
	// reported as medians over jobs, so a burst of host noise during one
	// job's serving moves one entry.
	swapP50, swapP90 []float64 // ms
	qps              []float64
	p50, p99         []float64 // us
	attempted        int
	failed           int
	emit             time.Duration // BuildRulesFile, summed over jobs
	compile          time.Duration
}

// runTune tunes every job once and serves its evaluation set from the
// tuned, compiled rule file.
func (w *tuneWorkload) runTune(probe tuneProbe) (*tuneRep, error) {
	rep := &tuneRep{}
	reg := ruleserver.NewRegistry()
	for _, j := range w.jobs {
		if err := w.runJob(j, probe, reg, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

func (w *tuneWorkload) runJob(j *job, probe tuneProbe, reg *ruleserver.Registry, rep *tuneRep) error {
	rec := probe.rec
	if rec == nil {
		rec = obs.Nop
	}
	var backend autotune.Backend = autotune.LiveBackend{Runner: j.runner}
	fcfg := forest.Config{NTrees: 60, Seed: j.seed}
	if probe.reg != nil {
		j.runner.Metrics = benchmark.NewMetrics(probe.reg)
		defer func() { j.runner.Metrics = nil }()
		fcfg.Metrics = forest.NewMetrics(probe.reg)
	}
	if probe.backend != nil {
		probe.backend.inner = autotune.LiveBackend{Runner: j.runner}
		backend = probe.backend
	}

	t0 := time.Now()
	root := rec.StartSpan("job", obs.NoSpan)
	tuner := core.New(core.Config{
		Space:     space(w.spec),
		Forest:    fcfg,
		Seed:      j.seed,
		Parallel:  true,
		BatchSize: 4,
		Window:    6,
		Epsilon:   0.03,
		Recorder:  probe.rec,
		Registry:  probe.reg,
	}, backend)
	results, err := tuner.TuneAll(w.spec.colls)
	if err != nil {
		rec.EndSpan(root)
		return err
	}
	sp := rec.StartSpan("emit", root)
	te := time.Now()
	file, err := tuner.BuildRulesFile(results, "theta-sim")
	rep.emit += time.Since(te)
	rec.EndSpan(sp)
	if err != nil {
		rec.EndSpan(root)
		return err
	}
	sp = rec.StartSpan("compile", root)
	tc := time.Now()
	idx, err := ruleserver.Compile(file)
	rep.compile += time.Since(tc)
	rec.EndSpan(sp)
	rec.EndSpan(root)
	rep.wall += time.Since(t0)
	if err != nil {
		return err
	}

	for _, c := range w.spec.colls {
		r := results[c]
		rep.machineUs += r.Ledger.Collection
		rep.rounds += len(r.Trace)
		rep.samples += len(r.Order)
		rep.scored += len(r.Trace) * len(autotune.Candidates(c, space(w.spec), j.runner.MaxNodes()))
	}
	for _, t := range file.Tables {
		rep.rules += t.NumRules()
	}

	// Publish the tuned file, then answer the evaluation set from it.
	// Tuning leaves garbage behind; collecting it first keeps the
	// serving measurements below free of that collection.
	if w.mutate != nil {
		w.mutate(file)
	}
	runtime.GC()
	swaps := make([]time.Duration, publishes)
	for k := range swaps {
		ts := time.Now()
		if err := reg.Swap(j.key, file); err != nil {
			return err
		}
		swaps[k] = time.Since(ts)
	}
	rep.swapP50 = append(rep.swapP50, durQuantile(swaps, 0.50, time.Millisecond))
	rep.swapP90 = append(rep.swapP90, durQuantile(swaps, 0.90, time.Millisecond))
	w.check(j, file, idx, rep)
	return w.serveEval(j, reg, rep)
}

// check validates the job's rule file and compares the compiled index
// against the nested table walk on the whole evaluation set.
func (w *tuneWorkload) check(j *job, file *rules.File, idx *ruleserver.Index, rep *tuneRep) {
	rep.attempted++
	if file.Validate() != nil {
		rep.failed++
	}
	for _, c := range w.spec.colls {
		t := file.Tables[c.String()]
		for _, ep := range j.eval[c] {
			rep.attempted++
			got, ok := idx.Lookup(c, ep.p.Nodes, ep.p.PPN, ep.p.MsgBytes)
			if t == nil {
				rep.failed++
				continue
			}
			want, err := t.Select(ep.p.Nodes, ep.p.PPN, ep.p.MsgBytes)
			if err != nil || !ok || got != want {
				rep.failed++
			}
		}
	}
}

// serveEval answers the evaluation set through the registry in batches,
// scoring each served selection against the ground truth once and
// timing the rest of the closed loop.
func (w *tuneWorkload) serveEval(j *job, reg *ruleserver.Registry, rep *tuneRep) error {
	srv, ok := reg.Tenant(j.key)
	if !ok {
		return errors.New("tuned tenant missing from registry")
	}
	type query struct {
		c  coll.Collective
		ep *evalPoint
	}
	var qs []query
	for _, c := range w.spec.colls {
		for i := range j.eval[c] {
			qs = append(qs, query{c, &j.eval[c][i]})
		}
	}
	for _, q := range qs {
		alg, ok := srv.Lookup(q.c, q.ep.p.Nodes, q.ep.p.PPN, q.ep.p.MsgBytes)
		slow, priced := q.ep.slowdown(q.c, alg, ok)
		rep.attempted++
		if !priced {
			rep.failed++
			continue
		}
		rep.slowSum += slow
		rep.slowN++
	}
	lat := make([]time.Duration, 0, serveLookups/evalBatch) // one entry per batch
	start := time.Now()
	n := 0
	for n < serveLookups {
		t0 := time.Now()
		for k := 0; k < evalBatch; k++ {
			q := qs[(n+k)%len(qs)]
			srv.Lookup(q.c, q.ep.p.Nodes, q.ep.p.PPN, q.ep.p.MsgBytes)
		}
		lat = append(lat, time.Since(t0))
		n += evalBatch
	}
	rep.qps = append(rep.qps, float64(n)/time.Since(start).Seconds())
	rep.p50 = append(rep.p50, durQuantile(lat, 0.50, time.Microsecond))
	rep.p99 = append(rep.p99, durQuantile(lat, 0.99, time.Microsecond))
	return nil
}

// benchTune sets the workload up setupReps times, then tunes it for the
// window. Traced, it alternates untraced and traced reps and reports
// the per-layer split of the traced ones.
func benchTune(spec tuneSpec, seed int64, window time.Duration, traced bool, mutate func(*rules.File)) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	var setups []time.Duration
	var w *tuneWorkload
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		var err error
		if w, err = setupTune(spec, seed); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0))
	}
	w.mutate = mutate
	if err := w.checkEvalSet(); err != nil {
		o.fail("%v", err)
	}

	var plain, probed []*tuneRep
	var layers []map[string]float64
	var rt runtimeDelta // summed over the untraced reps
	start := time.Now()
	for len(plain) == 0 || (traced && len(probed) == 0) || time.Since(start) < window {
		if !traced || len(plain) <= len(probed) {
			before := memStats()
			rep, err := w.runTune(tuneProbe{})
			if err != nil {
				return nil, err
			}
			rt = rt.plus(runtimeSince(before))
			plain = append(plain, rep)
			continue
		}
		rep, layer, err := w.runTraced()
		if err != nil {
			return nil, err
		}
		probed = append(probed, rep)
		layers = append(layers, layer)
	}

	first := plain[0]
	var walls, qps, p50, p99, swapP50, swapP90 []float64
	for _, r := range append(plain, probed...) {
		o.attempted += r.attempted
		o.failed += r.failed
		if r.machineUs != first.machineUs || r.slowSum != first.slowSum || r.rounds != first.rounds || r.samples != first.samples {
			o.fail("tuning is not deterministic: reps differ in machine time, slowdown, rounds or samples")
		}
	}
	for _, r := range plain {
		walls = append(walls, r.wall.Seconds())
		qps = append(qps, r.qps...)
		p50 = append(p50, r.p50...)
		p99 = append(p99, r.p99...)
		swapP50 = append(swapP50, r.swapP50...)
		swapP90 = append(swapP90, r.swapP90...)
	}
	v := o.values
	v["setup_s"] = median(seconds(setups))
	v["tune_wall_s"] = median(walls)
	v["machine_s"] = first.machineUs / 1e6
	if first.slowN > 0 {
		v["slowdown"] = first.slowSum / float64(first.slowN)
	}
	v["qps"] = median(qps)
	v["p50_us"] = median(p50)
	v["p99_us"] = median(p99)
	v["swap_p50_ms"] = median(swapP50)
	v["swap_p90_ms"] = median(swapP90)
	v["peak_rss_mb"] = peakRSSMB()
	v["error_ratio"] = float64(o.failed) / float64(max(o.attempted, 1))
	v["core.rounds"] = float64(first.rounds)
	v["core.samples"] = float64(first.samples)
	v["emit.rules"] = float64(first.rules)
	n := float64(len(plain))
	v["go.alloc_mb"] = rt.allocMB / n
	v["go.gc_cycles"] = rt.gcCycles / n
	v["go.gc_pause_ms"] = rt.gcPauseMs / n
	if traced {
		for name := range layers[0] {
			var xs []float64
			for _, l := range layers {
				xs = append(xs, l[name])
			}
			v[name] = median(xs)
		}
		var tracedWalls []float64
		for _, r := range probed {
			tracedWalls = append(tracedWalls, r.wall.Seconds())
		}
		v["trace.overhead_ratio"] = median(tracedWalls)/median(walls) - 1
	}
	return o, nil
}

// runTraced runs one rep with the span recorder, the metrics registry
// and the timed backend attached, and splits its wall time by layer.
func (w *tuneWorkload) runTraced() (*tuneRep, map[string]float64, error) {
	tr := obs.NewTrace()
	reg := obs.NewRegistry()
	tb := &timedBackend{}
	rep, err := w.runTune(tuneProbe{rec: tr, reg: reg, backend: tb})
	if err != nil {
		return nil, nil, err
	}
	self := selfTimes(tr.Spans())
	wall := rep.wall.Seconds()
	fit := self["fit"].Seconds()
	score := self["score"].Seconds()
	pick := self["pick"].Seconds()
	collect := (self["collect"] + self["seed_collect"]).Seconds()
	emit := (self["emit"] + self["compile"]).Seconds()
	l := map[string]float64{
		"core.fit_s":                  fit,
		"core.fit_share":              fit / wall,
		"forest.trees":                float64(reg.Counter("forest.trees_total").Load()),
		"forest.pool_busy_s":          reg.Gauge("forest.pool_busy_ns").Load() / 1e9,
		"core.score_s":                score,
		"core.score_share":            score / wall,
		"core.score_ns_per_candidate": score * 1e9 / float64(max(rep.scored, 1)),
		"core.pick_s":                 pick,
		"core.pick_share":             pick / wall,
		"collect.busy_s":              tb.busy.Seconds(),
		"collect.share":               collect / wall,
		"collect.specs":               float64(tb.specs),
		"collect.host_us_per_spec":    tb.busy.Seconds() * 1e6 / float64(max(tb.specs, 1)),
		"benchmark.noise_draws":       float64(reg.Counter("benchmark.noise_draws_total").Load()),
		"sched.waves":                 float64(reg.Counter("sched.waves_total").Load()),
		"sched.stalls":                float64(reg.Counter("sched.stalls_total").Load()),
		"sched.wave_size_mean":        reg.Histogram("sched.wave_size", 1, 2, 4, 8, 16, 32, 64).Mean(),
		"emit.build_ms":               float64(rep.emit) / 1e6,
		"compile.ms":                  float64(rep.compile) / 1e6,
		"emit.share":                  emit / wall,
		"trace.unattributed_share":    (wall - fit - score - pick - collect - emit) / wall,
	}
	return rep, l, nil
}
