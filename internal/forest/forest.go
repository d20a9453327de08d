// Package forest is a from-scratch random-forest regressor — the model
// family ACCLAiM uses (the paper uses scikit-learn's
// RandomForestRegressor; Section V). It provides CART regression trees
// with variance-reduction splits, bootstrap bagging, optional feature
// subsampling, and the jackknife uncertainty estimate over the ensemble
// (Wager, Hastie & Efron), which is the signal ACCLAiM's active
// learning uses to pick training points.
//
// Training and batch scoring run on a bounded worker pool
// (Config.Workers). The per-tree RNG state is drawn from the master
// stream before any goroutine starts, so the trained forest is
// bit-identical for every worker count — see DESIGN.md, "Concurrency
// model".
package forest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"acclaim/internal/obs"
	"acclaim/internal/stats"
)

// Config holds the forest hyperparameters. Zero fields take defaults.
type Config struct {
	NTrees   int   // ensemble size (default 30)
	MaxDepth int   // maximum tree depth (default 14)
	MinLeaf  int   // minimum samples per leaf (default 1)
	MTry     int   // features considered per split (default: all)
	Seed     int64 // RNG seed for bootstrap and feature sampling

	// Workers bounds the goroutine pool used by Train and the Batch
	// scoring methods. 0 means runtime.GOMAXPROCS(0); 1 forces the
	// serial path. The trained forest and all scores are independent of
	// this value.
	Workers int

	// Metrics, when non-nil, receives per-Train observability (tree
	// fit timing, pool occupancy). Nil costs nothing.
	Metrics *Metrics
}

// Metrics are the forest's registry handles. Build with NewMetrics and
// share one instance across every Config that should report into the
// same registry.
type Metrics struct {
	Trains    *obs.Counter   // forest.trains_total: Train calls
	Trees     *obs.Counter   // forest.trees_total: trees grown
	Workers   *obs.Gauge     // forest.train_workers: pool size of the last Train
	TreeFitNs *obs.Histogram // forest.tree_fit_ns: per-tree growth time
	TrainNs   *obs.Histogram // forest.train_ns: whole-Train wall time
	// PoolBusyNs accumulates summed per-tree growth time; divided by
	// train_ns x train_workers it yields worker-pool occupancy.
	PoolBusyNs *obs.Gauge // forest.pool_busy_ns
}

// NewMetrics registers the forest metric set on reg (nil reg gives
// all-nil, no-op handles).
func NewMetrics(reg *obs.Registry) *Metrics {
	return &Metrics{
		Trains:     reg.Counter("forest.trains_total"),
		Trees:      reg.Counter("forest.trees_total"),
		Workers:    reg.Gauge("forest.train_workers"),
		TreeFitNs:  reg.Histogram("forest.tree_fit_ns"),
		TrainNs:    reg.Histogram("forest.train_ns"),
		PoolBusyNs: reg.Gauge("forest.pool_busy_ns"),
	}
}

func (c Config) withDefaults(nFeatures int) Config {
	if c.NTrees == 0 {
		c.NTrees = 30
	}
	if c.MaxDepth == 0 {
		c.MaxDepth = 14
	}
	if c.MinLeaf == 0 {
		c.MinLeaf = 1
	}
	if c.MTry == 0 || c.MTry > nFeatures {
		c.MTry = nFeatures
	}
	return c
}

// workers resolves the effective pool size for n independent work items.
func (c Config) workers(n int) int {
	w := c.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// node is one tree node in a flat arena. Leaves have left == -1.
type node struct {
	feature int
	thresh  float64
	left    int
	right   int
	value   float64
}

// tree is a CART regression tree.
type tree struct {
	nodes []node
}

func (t *tree) predict(x []float64) float64 {
	i := 0
	for {
		n := t.nodes[i]
		if n.left == -1 {
			return n.value
		}
		if x[n.feature] <= n.thresh {
			i = n.left
		} else {
			i = n.right
		}
	}
}

// Forest is a trained random-forest regressor. It is immutable and safe
// for concurrent prediction.
type Forest struct {
	cfg       Config
	trees     []tree
	nFeatures int
}

// validateRows checks the row-of-slices training input shape and
// returns the feature count.
func validateRows(x [][]float64, y []float64) (nf int, err error) {
	if len(x) == 0 {
		return 0, errors.New("forest: no training samples")
	}
	if len(x) != len(y) {
		return 0, fmt.Errorf("forest: %d samples but %d targets", len(x), len(y))
	}
	nf = len(x[0])
	if nf == 0 {
		return 0, errors.New("forest: samples have no features")
	}
	for i, row := range x {
		if len(row) != nf {
			return 0, fmt.Errorf("forest: row %d has %d features, want %d", i, len(row), nf)
		}
		if j := firstNonFinite(row); j >= 0 {
			return 0, nonFiniteFeature(i, j, row[j])
		}
	}
	return nf, checkTargets(y)
}

// validateFlat checks the flat row-major training input shape (the
// TrainFlat form of validateRows) and returns the row count.
func validateFlat(x []float64, cols int, y []float64) (rows int, err error) {
	if cols < 1 {
		return 0, errors.New("forest: samples have no features")
	}
	if len(x)%cols != 0 {
		return 0, fmt.Errorf("forest: flat matrix of %d values is not a multiple of %d columns", len(x), cols)
	}
	rows = len(x) / cols
	if rows == 0 {
		return 0, errors.New("forest: no training samples")
	}
	if rows != len(y) {
		return 0, fmt.Errorf("forest: %d samples but %d targets", rows, len(y))
	}
	if j := firstNonFinite(x); j >= 0 {
		return 0, nonFiniteFeature(j/cols, j%cols, x[j])
	}
	return rows, checkTargets(y)
}

// checkTargets rejects a NaN or infinite target: it would poison every
// SSE of every node that holds it.
func checkTargets(y []float64) error {
	if i := firstNonFinite(y); i >= 0 {
		return fmt.Errorf("forest: target %d is %v; training values must be finite", i, y[i])
	}
	return nil
}

// nonFiniteFeature is the error for a NaN or infinite feature value.
// Binning ranks values by comparison, which a NaN defeats.
func nonFiniteFeature(sample, feature int, v float64) error {
	return fmt.Errorf("forest: sample %d feature %d is %v; training values must be finite", sample, feature, v)
}

// firstNonFinite returns the index of the first NaN or ±Inf in vals,
// or -1 if every value is finite.
func firstNonFinite(vals []float64) int {
	for i, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return i
		}
	}
	return -1
}

// Train fits a forest on X (rows are samples) and y. All rows must have
// equal length and all values must be finite; a NaN or infinite
// feature or target is an error. Training is deterministic
// for a given Config.Seed: the bootstrap indices and per-tree builder
// seeds are drawn from the master RNG stream up front, in tree order,
// exactly as a serial loop would draw them, and only then are the trees
// grown on the worker pool — so every Workers setting yields a
// bit-identical forest.
//
// Tree growth runs on the compiled histogram trainer (see trainer.go),
// which is bit-identical to the reference builder kept in this file —
// FuzzTrainDifferential holds that line.
func Train(cfg Config, x [][]float64, y []float64) (*Forest, error) {
	nf, err := validateRows(x, y)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(nf)
	bs := newBinset(len(x), nf, func(f int, dst []float64) {
		for i, row := range x {
			dst[i] = row[f]
		}
	})
	return train(cfg, len(x), nf, y, func() fitter {
		return &trainer{bs: bs, y: y, cfg: cfg}
	}), nil
}

// trainReference is the pre-histogram training path: identical
// validation, pre-draw, and pool, with trees grown by the reference
// builder. It is the differential oracle FuzzTrainDifferential and the
// training benchmarks compare the compiled trainer against.
func trainReference(cfg Config, x [][]float64, y []float64) (*Forest, error) {
	nf, err := validateRows(x, y)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(nf)
	return train(cfg, len(x), nf, y, func() fitter {
		return &builder{x: x, y: y, cfg: cfg}
	}), nil
}

// fitter grows one tree at a time. Train instantiates one fitter per
// worker goroutine so scratch buffers are reused across the trees that
// worker grows; the returned arena is retained by the Forest.
type fitter interface {
	fitTree(seed int64, boot []int) []node
}

// train is the shared training loop behind Train, TrainFlat, and
// trainReference: cfg must already have defaults applied. It pre-draws
// every tree's random inputs serially from the master stream —
// O(NTrees·nSamples) cheap RNG calls, negligible next to tree growth —
// which is what makes parallel training reproduce the serial forest
// bit for bit at every Workers count.
func train(cfg Config, nSamples, nFeatures int, y []float64, newFitter func() fitter) *Forest {
	f := &Forest{cfg: cfg, trees: make([]tree, cfg.NTrees), nFeatures: nFeatures}

	rng := rand.New(rand.NewSource(cfg.Seed))
	boots := make([][]int, cfg.NTrees)
	seeds := make([]int64, cfg.NTrees)
	flat := make([]int, cfg.NTrees*nSamples) // one allocation for all bootstraps
	for ti := range boots {
		idx := flat[ti*nSamples : (ti+1)*nSamples]
		for i := range idx {
			idx[i] = rng.Intn(nSamples)
		}
		boots[ti] = idx
		seeds[ti] = rng.Int63()
	}

	// Observability: per-tree growth time feeds a histogram and a
	// busy-time accumulator whose ratio to wall time is the pool's
	// occupancy. All of it is skipped (including the clock reads) when
	// Metrics is nil, keeping the uninstrumented path identical.
	met := cfg.Metrics
	var t0 int64
	if met != nil {
		t0 = obs.NowNs()
	}
	grow := func(b fitter, ti int) {
		if met == nil {
			f.trees[ti] = tree{nodes: b.fitTree(seeds[ti], boots[ti])}
			return
		}
		s0 := obs.NowNs()
		f.trees[ti] = tree{nodes: b.fitTree(seeds[ti], boots[ti])}
		d := float64(obs.NowNs() - s0)
		met.TreeFitNs.Observe(d)
		met.PoolBusyNs.Add(d)
	}

	workers := cfg.workers(cfg.NTrees)
	if workers == 1 {
		b := newFitter()
		for ti := range f.trees {
			grow(b, ti)
		}
		trainDone(met, t0, cfg.NTrees, 1)
		return f
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One fitter per worker: its scratch buffers are reused
			// across every tree the worker grows.
			b := newFitter()
			for {
				ti := int(next.Add(1)) - 1
				if ti >= cfg.NTrees {
					return
				}
				grow(b, ti)
			}
		}()
	}
	wg.Wait()
	trainDone(met, t0, cfg.NTrees, workers)
	return f
}

// trainDone records the end-of-Train metrics. t0 is the obs.NowNs
// reading taken when training started.
func trainDone(met *Metrics, t0 int64, trees, workers int) {
	if met == nil {
		return
	}
	met.Trains.Inc()
	met.Trees.Add(uint64(trees))
	met.Workers.Set(float64(workers))
	met.TrainNs.Observe(float64(obs.NowNs() - t0))
}

// fv pairs one sample's feature value with its target for split scans.
type fv struct{ v, y float64 }

// builder grows trees. One builder serves one goroutine; its scratch
// buffers (perm, vals, part) persist across trees to keep per-split
// allocations off the hot path.
type builder struct {
	x     [][]float64
	y     []float64
	cfg   Config
	rng   *rand.Rand
	nodes []node
	hint  int // node count of the last tree grown, sizes the next arena

	perm []int // scratch: feature permutation (mirrors rand.Perm)
	vals []fv  // scratch: sorted (value, target) pairs per split scan
	part []int // scratch: right-side buffer for stable partition
}

// fitTree implements fitter; see build.
func (b *builder) fitTree(seed int64, boot []int) []node { return b.build(seed, boot) }

// build grows one tree from a fresh seed and bootstrap sample and
// returns its node arena. The arena is freshly allocated per tree (it
// is retained by the Forest); all other buffers are reused.
func (b *builder) build(seed int64, boot []int) []node {
	b.rng = rand.New(rand.NewSource(seed))
	b.nodes = make([]node, 0, b.hint)
	b.grow(boot, 0)
	nodes := b.nodes
	b.nodes = nil
	b.hint = len(nodes)
	return nodes
}

// grow builds the subtree over the samples in idx and returns its node
// index. idx is partitioned in place (order-preserving), so the caller
// must not rely on its order afterwards.
func (b *builder) grow(idx []int, depth int) int {
	mean, sse := meanSSE(b.y, idx)
	self := len(b.nodes)
	b.nodes = append(b.nodes, node{left: -1, right: -1, value: mean})
	if depth >= b.cfg.MaxDepth || len(idx) < 2*b.cfg.MinLeaf || sse <= 1e-12 {
		return self
	}
	feat, thresh, ok := b.bestSplit(idx, sse)
	if !ok {
		return self
	}
	left, right := b.partition(idx, feat, thresh)
	if len(left) < b.cfg.MinLeaf || len(right) < b.cfg.MinLeaf {
		return self
	}
	l := b.grow(left, depth+1)
	r := b.grow(right, depth+1)
	b.nodes[self].feature = feat
	b.nodes[self].thresh = thresh
	b.nodes[self].left = l
	b.nodes[self].right = r
	return self
}

// partition splits idx into the samples at or below thresh on feat and
// those above, preserving relative order (a stable partition, so the
// split scan downstream sees the same sample order the append-based
// partition produced). It reuses b.part and returns two subslices of
// idx.
func (b *builder) partition(idx []int, feat int, thresh float64) (left, right []int) {
	if cap(b.part) < len(idx) {
		b.part = make([]int, 0, len(idx))
	}
	rbuf := b.part[:0]
	k := 0
	for _, i := range idx {
		if b.x[i][feat] <= thresh {
			idx[k] = i
			k++
		} else {
			rbuf = append(rbuf, i)
		}
	}
	b.part = rbuf
	copy(idx[k:], rbuf)
	return idx[:k], idx[k:]
}

// featurePerm fills b.perm with the permutation rand.Perm would produce
// from the same stream (same Intn call sequence, no allocation) and
// returns its first MTry entries.
func (b *builder) featurePerm(n int) []int {
	if cap(b.perm) < n {
		b.perm = make([]int, n)
	}
	return fillPerm(b.rng, b.perm[:n], b.cfg.MTry)
}

// fillPerm overwrites perm with the permutation rand.Perm(len(perm))
// would produce from the same stream (same Intn call sequence, no
// allocation) and returns its first mtry entries. Reference builder and
// compiled trainer share it so both consume the per-tree RNG stream
// identically — a precondition of their bit-identical splits.
func fillPerm(rng *rand.Rand, perm []int, mtry int) []int {
	perm[0] = 0 // scratch may be dirty; rand.Perm starts from a zeroed slice
	for i := 1; i < len(perm); i++ {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = i
	}
	return perm[:mtry]
}

// bestSplit scans MTry random features for the threshold minimizing the
// children's summed SSE. Returns ok=false if no split improves on the
// parent.
func (b *builder) bestSplit(idx []int, parentSSE float64) (feat int, thresh float64, ok bool) {
	nf := len(b.x[0])
	feats := b.featurePerm(nf)
	bestSSE := parentSSE - 1e-12
	if cap(b.vals) < len(idx) {
		b.vals = make([]fv, len(idx))
	}
	vals := b.vals[:len(idx)]
	for _, f := range feats {
		for j, i := range idx {
			vals[j] = fv{b.x[i][f], b.y[i]}
		}
		// The sort must be stable: equal feature values keep the node's
		// sample order, which fixes the float-summation order of the
		// prefix scans below. The compiled trainer reproduces exactly
		// that order with a stable counting sort over pre-binned
		// columns, making its SSE arithmetic — and therefore its chosen
		// splits — bit-identical to this reference path.
		sort.SliceStable(vals, func(a, c int) bool { return vals[a].v < vals[c].v })
		// Prefix sums let each candidate threshold be scored in O(1).
		var sumL, sumSqL float64
		var sumR, sumSqR float64
		for _, e := range vals {
			sumR += e.y
			sumSqR += e.y * e.y
		}
		nL := 0
		nR := len(vals)
		for j := 0; j < len(vals)-1; j++ {
			yv := vals[j].y
			sumL += yv
			sumSqL += yv * yv
			sumR -= yv
			sumSqR -= yv * yv
			nL++
			nR--
			if vals[j].v == vals[j+1].v {
				continue // cannot split between equal values
			}
			if nL < b.cfg.MinLeaf || nR < b.cfg.MinLeaf {
				continue
			}
			sse := (sumSqL - sumL*sumL/float64(nL)) + (sumSqR - sumR*sumR/float64(nR))
			if sse < bestSSE {
				bestSSE = sse
				feat = f
				thresh = (vals[j].v + vals[j+1].v) / 2
				ok = true
			}
		}
	}
	return feat, thresh, ok
}

func meanSSE(y []float64, idx []int) (mean, sse float64) {
	for _, i := range idx {
		mean += y[i]
	}
	mean /= float64(len(idx))
	for _, i := range idx {
		d := y[i] - mean
		sse += d * d
	}
	return mean, sse
}

// NumFeatures returns the feature dimensionality the forest was trained
// on.
func (f *Forest) NumFeatures() int { return f.nFeatures }

// NumTrees returns the ensemble size.
func (f *Forest) NumTrees() int { return len(f.trees) }

// Predict returns the ensemble mean prediction for x. It panics if x has
// the wrong dimensionality.
func (f *Forest) Predict(x []float64) float64 {
	f.check(x)
	var s float64
	for i := range f.trees {
		s += f.trees[i].predict(x)
	}
	return s / float64(len(f.trees))
}

// TreePredictions returns every tree's prediction for x — the vector p
// of the paper's Section IV-A jackknife procedure.
func (f *Forest) TreePredictions(x []float64) []float64 {
	f.check(x)
	out := make([]float64, len(f.trees))
	f.treePredictInto(x, out)
	return out
}

// treePredictInto fills dst (len == NumTrees) with per-tree predictions.
func (f *Forest) treePredictInto(x []float64, dst []float64) {
	for i := range f.trees {
		dst[i] = f.trees[i].predict(x)
	}
}

// JackknifeVariance computes the jackknife variance of the ensemble's
// predictions at x: the model's uncertainty there (Section IV-A,
// following Wager et al.).
func (f *Forest) JackknifeVariance(x []float64) float64 {
	return stats.JackknifeVariance(f.TreePredictions(x))
}

// forEach runs fn(worker, i) for i in [0, n) across the worker pool.
// Each index is processed exactly once; fn must only write state owned
// by index i (or by its worker id).
func (f *Forest) forEach(n int, fn func(worker, i int)) {
	workers := f.cfg.workers(n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(w, i)
			}
		}(w)
	}
	wg.Wait()
}

// PredictBatch returns the ensemble mean prediction for every row of
// xs, fanned across the worker pool. out[i] depends only on xs[i], so
// the result is identical for every Workers setting. It panics if any
// row has the wrong dimensionality.
func (f *Forest) PredictBatch(xs [][]float64) []float64 {
	for _, x := range xs {
		f.check(x)
	}
	out := make([]float64, len(xs))
	f.forEach(len(xs), func(_, i int) {
		var s float64
		for t := range f.trees {
			s += f.trees[t].predict(xs[i])
		}
		out[i] = s / float64(len(f.trees))
	})
	return out
}

// JackknifeVarianceBatch returns the jackknife variance at every row of
// xs, fanned across the worker pool — the batched form of the
// active-learning scoring sweep. Per-worker prediction buffers are
// reused, so the sweep allocates O(workers·NumTrees) instead of
// O(len(xs)·NumTrees).
func (f *Forest) JackknifeVarianceBatch(xs [][]float64) []float64 {
	for _, x := range xs {
		f.check(x)
	}
	out := make([]float64, len(xs))
	workers := f.cfg.workers(len(xs))
	bufs := make([][]float64, workers)
	for w := range bufs {
		bufs[w] = make([]float64, len(f.trees))
	}
	f.forEach(len(xs), func(w, i int) {
		preds := bufs[w]
		f.treePredictInto(xs[i], preds)
		out[i] = stats.JackknifeVariance(preds)
	})
	return out
}

// dimPanicFormat is the dimensionality-mismatch panic shared by the
// reference path and the compiled Kernel, so callers observe one
// message regardless of which path scored the row.
const dimPanicFormat = "forest: predicting with %d features, trained on %d"

func (f *Forest) check(x []float64) {
	if len(x) != f.nFeatures {
		panic(fmt.Sprintf(dimPanicFormat, len(x), f.nFeatures))
	}
}
