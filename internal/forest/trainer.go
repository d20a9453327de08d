// Compiled forest training: the histogram trainer lowers tree
// *building* onto flat pre-binned feature columns the same way
// compiled.go lowered inference onto flat node arrays. It is the
// training counterpart of the inference Kernel and the default path
// behind Train / TrainFlat / TrainMatrix; the pointer-chasing
// reference builder in forest.go stays as the differential oracle.
//
// Binning. Train computes per-feature bin edges once per call: the
// sorted distinct values of each column (a featspace.Matrix column in
// the flat entry points). Every sample value is replaced by its bin
// index — its rank among the column's distinct values — in one flat
// column-major int32 matrix. Because the bins are exact (one bin per
// distinct value, not a capped quantile sketch), nothing the reference
// split scan can distinguish is lost: candidate thresholds live only
// between adjacent distinct values, and the midpoint arithmetic reads
// the original values back out of the edge table.
//
// Split finding. The reference builder re-sorts the node's (value,
// target) pairs for every feature of every node — the dominant cost of
// tree growth. The trainer never sorts inside a node: it maintains,
// for each feature, the node's sample indices in sorted value order
// (ties in node order), built once per tree by a stable counting sort
// over the bins and kept sorted thereafter because the stable
// partition that splits a node splits each feature's order array too,
// and a stable filter of a sorted sequence stays sorted. A split scan
// is then one linear pass that gathers targets and bins into SoA
// scratch while summing the totals, and one walk over the runs of
// equal bins that scores a candidate only where the bin changes.
//
// Skipped work. A feature whose node-sorted order segment starts and
// ends in the same bin is constant in the node and in every node
// below it: it has no candidate boundary, so it is neither scanned nor
// partitioned again in that subtree (splittable). The split
// feature's own order segment is never partitioned either: sorted by
// bin, it already holds every bin <= cut ahead of every bin > cut.
//
// Determinism. Bit-identity with the reference builder is structural,
// not approximate: the per-tree RNG is pre-drawn identically, feature
// permutations consume the stream through the shared fillPerm, and the
// prefix-sum scan repeats the reference bestSplit's float expressions
// operation for operation over the exact sample order the reference's
// stable sort produces (see the induction argument in DESIGN.md,
// "Training kernel"). FuzzTrainDifferential pins node-for-node
// equality at every Workers count.
//
// Arena. Nodes append into one reused per-trainer arena (same
// parent, left-subtree, right-subtree emission order as the builder,
// so the parent+1 left-child adjacency the inference Kernel asserts at
// Compile time is preserved), then one right-sized copy per tree is
// retained by the Forest. Steady-state growth — reseeding the worker's
// RNG in place, order building, split scans, partitions — allocates
// nothing beyond that copy; the zeroalloc annotations,
// TestTrainerSteadyStateZeroAlloc and BenchmarkTrainSplitScan's hard
// benchguard gate hold that line.
package forest

import (
	"math/rand"
	"sort"

	"acclaim/internal/featspace"
)

// binset is the pre-binned, read-only view of one training matrix,
// shared by every trainer goroutine of a Train call.
type binset struct {
	n, nf int

	// bins is column-major: bins[f*n+i] is sample i's rank among the
	// distinct values of feature f.
	bins []int32

	// edges[f] holds feature f's distinct values, ascending;
	// edges[f][bins[f*n+i]] == the original value.
	edges [][]float64

	maxBins int // max distinct values over all features, sizes trainer.cnt
}

// newBinset computes bin edges and binned columns for an n×nf matrix.
// col must gather column f into dst[:n]. Called once per Train; the
// result is immutable and safe to share across worker goroutines.
func newBinset(n, nf int, col func(f int, dst []float64)) *binset {
	bs := &binset{
		n:     n,
		nf:    nf,
		bins:  make([]int32, n*nf),
		edges: make([][]float64, nf),
	}
	vals := make([]float64, n)
	sorted := make([]float64, n)
	for f := 0; f < nf; f++ {
		col(f, vals)
		copy(sorted, vals)
		sort.Float64s(sorted)
		edges := make([]float64, 0, 16)
		for i, v := range sorted {
			if i == 0 || v != edges[len(edges)-1] {
				edges = append(edges, v)
			}
		}
		bs.edges[f] = edges
		if len(edges) > bs.maxBins {
			bs.maxBins = len(edges)
		}
		out := bs.bins[f*n : (f+1)*n]
		for i, v := range vals {
			out[i] = int32(sort.SearchFloat64s(edges, v))
		}
	}
	return bs
}

// trainer grows trees on a binset. One trainer serves one goroutine;
// all scratch persists across the trees that goroutine grows, so
// steady-state growth performs no allocations beyond the retained
// per-tree node copy.
type trainer struct {
	bs  *binset
	y   []float64
	cfg Config
	rng *rand.Rand // reseeded in place per tree

	nodes []node // arena, reused across trees; Forest keeps a copy
	hint  int    // node count of the last tree grown, sizes the copy

	nb    int     // bootstrap size of the current tree
	idx   []int32 // current tree's sample indices, partitioned in place
	order []int32 // column-major per-feature sorted orders: order[f*nb+pos]
	part  []int32 // scratch: right side of the stable partitions
	cnt   []int32 // counting-sort workspace, all-zero between uses
	ybuf  []float64
	bbuf  []int32 // SoA split-scan gather: targets and bins in node-sorted order
	perm  []int   // scratch: feature permutation (mirrors rand.Perm)
}

// ensure sizes every scratch buffer for a bootstrap of nb samples.
func (t *trainer) ensure(nb int) {
	t.nb = nb
	if cap(t.idx) < nb {
		t.idx = make([]int32, nb)
		t.part = make([]int32, nb)
		t.ybuf = make([]float64, nb)
		t.bbuf = make([]int32, nb)
	}
	t.idx = t.idx[:nb]
	if need := nb * t.bs.nf; cap(t.order) < need {
		t.order = make([]int32, need)
	}
	if cap(t.cnt) < t.bs.maxBins {
		t.cnt = make([]int32, t.bs.maxBins) // zeroed by make; kept zero after use
	}
	if cap(t.perm) < t.bs.nf {
		t.perm = make([]int, t.bs.nf)
	}
}

// fitTree implements fitter: it grows one tree from a fresh seed and
// bootstrap sample, bit-identical to builder.build on the same inputs.
func (t *trainer) fitTree(seed int64, boot []int) []node {
	if t.rng == nil {
		t.rng = rand.New(rand.NewSource(seed))
	} else {
		t.rng.Seed(seed) // the stream a fresh source would give, without its 5 KB
	}
	t.ensure(len(boot))
	for i, s := range boot {
		t.idx[i] = int32(s)
	}
	t.buildOrders()
	if cap(t.nodes) < t.hint {
		t.nodes = make([]node, 0, t.hint)
	}
	t.nodes = t.nodes[:0]
	t.growRange(0, t.nb, 0)
	out := make([]node, len(t.nodes))
	copy(out, t.nodes)
	t.hint = len(t.nodes)
	return out
}

// buildOrders fills order with each feature's stable counting sort of
// the bootstrap: positions [0,nb) hold the sample indices sorted by
// feature value, ties in bootstrap order — exactly the sequence the
// reference builder's stable sort produces at the root. cnt is all
// zeros on entry and is re-zeroed before returning.
//
//acclaim:zeroalloc
func (t *trainer) buildOrders() {
	n, nb := t.bs.n, t.nb
	bins, cnt := t.bs.bins, t.cnt
	idx := t.idx[:nb]
	for f := 0; f < t.bs.nf; f++ {
		col := bins[f*n : (f+1)*n]
		nbins := len(t.bs.edges[f])
		for _, i := range idx {
			cnt[col[i]]++
		}
		var run int32
		for b := 0; b < nbins; b++ {
			c := cnt[b]
			cnt[b] = run
			run += c
		}
		out := t.order[f*nb : (f+1)*nb]
		for _, i := range idx {
			b := col[i]
			out[cnt[b]] = i
			cnt[b]++
		}
		for b := 0; b < nbins; b++ {
			cnt[b] = 0
		}
	}
}

// growRange builds the subtree over the samples in idx[lo:hi] and
// returns its node index. It mirrors builder.grow stopping rule for
// stopping rule; idx and the order segment of every feature that can
// still split are partitioned in place, preserving relative order.
func (t *trainer) growRange(lo, hi, depth int) int {
	idx := t.idx[lo:hi]
	mean, sse := meanSSE32(t.y, idx)
	self := len(t.nodes)
	t.nodes = append(t.nodes, node{left: -1, right: -1, value: mean})
	if depth >= t.cfg.MaxDepth || len(idx) < 2*t.cfg.MinLeaf || sse <= 1e-12 {
		return self
	}
	feat, thresh, cut, ok := t.bestSplit(lo, hi, sse)
	if !ok {
		return self
	}
	k := t.stablePartition(idx, feat, cut)
	if k < t.cfg.MinLeaf || len(idx)-k < t.cfg.MinLeaf {
		return self
	}
	for f := 0; f < t.bs.nf; f++ {
		// feat's own segment is sorted by bin, so it is already split
		// at k.
		if f != feat && t.splittable(f, lo, hi) {
			t.stablePartition(t.order[f*t.nb+lo:f*t.nb+hi], feat, cut)
		}
	}
	l := t.growRange(lo, lo+k, depth+1)
	r := t.growRange(lo+k, hi, depth+1)
	t.nodes[self].feature = feat
	t.nodes[self].thresh = thresh
	t.nodes[self].left = l
	t.nodes[self].right = r
	return self
}

// splittable reports whether feature f has a candidate split in the
// node over [lo,hi): its order segment, sorted by bin, starts and ends
// in different bins. A feature constant in a node is constant in every
// node below it, so growRange stops partitioning its segment there.
// The unpartitioned segments below still hold only samples of the node
// where the feature went constant, all in one bin, so this test keeps
// answering false for them without any per-node state.
//
//acclaim:zeroalloc
func (t *trainer) splittable(f, lo, hi int) bool {
	col := t.bs.bins[f*t.bs.n : (f+1)*t.bs.n]
	seg := t.order[f*t.nb+lo : f*t.nb+hi]
	return col[seg[0]] != col[seg[len(seg)-1]]
}

// bestSplit scans MTry random features (same fillPerm stream as the
// reference) for the threshold minimizing the children's summed SSE,
// skipping features that cannot split here: their scan would find no
// candidate. cut is the highest bin index the left child keeps — the
// integer form of the reference partition's `value <= thresh`
// predicate, which can include the right boundary bin when the
// midpoint rounds up to it.
func (t *trainer) bestSplit(lo, hi int, parentSSE float64) (feat int, thresh float64, cut int32, ok bool) {
	feats := fillPerm(t.rng, t.perm[:t.bs.nf], t.cfg.MTry)
	bestSSE := parentSSE - 1e-12
	for _, f := range feats {
		if !t.splittable(f, lo, hi) {
			continue
		}
		if sse, th, c, o := t.scanFeature(f, lo, hi, bestSSE); o {
			bestSSE, feat, thresh, cut, ok = sse, f, th, c, true
		}
	}
	return feat, thresh, cut, ok
}

// scanFeature runs the prefix-sum split scan over feature f's sorted
// order segment [lo,hi) and returns the best candidate strictly below
// limit. The gather pass also sums the totals, in sample order; the
// scan then walks runs of equal bins and scores a candidate only where
// the bin changes. Every accumulator sees the float operations of
// builder.bestSplit in the same order over the same sample sequence —
// samples after the last boundary, which the reference adds but never
// scores, are simply not visited — so the computed SSEs, and the
// comparisons deciding the returned split, are bit-identical to the
// reference scan.
//
//acclaim:zeroalloc
func (t *trainer) scanFeature(f, lo, hi int, limit float64) (bestSSE, thresh float64, cut int32, ok bool) {
	n, nb := t.bs.n, t.nb
	col := t.bs.bins[f*n : (f+1)*n]
	edges := t.bs.edges[f]
	m := hi - lo
	ys := t.ybuf[:m]
	bks := t.bbuf[:m]
	var sumR, sumSqR float64
	for j, i := range t.order[f*nb+lo : f*nb+hi] {
		yv := t.y[i]
		ys[j] = yv
		bks[j] = col[i]
		sumR += yv
		sumSqR += yv * yv
	}

	bestSSE = limit
	var sumL, sumSqL float64
	minLeaf := t.cfg.MinLeaf
	last := bks[m-1]
	for j := 0; bks[j] != last; {
		// bks is sorted, so this run ends before the last bin's run.
		b := bks[j]
		for bks[j] == b {
			yv := ys[j]
			sumL += yv
			sumSqL += yv * yv
			sumR -= yv
			sumSqR -= yv * yv
			j++
		}
		nL, nR := j, m-j
		if nL < minLeaf || nR < minLeaf {
			continue
		}
		sse := (sumSqL - sumL*sumL/float64(nL)) + (sumSqR - sumR*sumR/float64(nR))
		if sse < bestSSE {
			bestSSE = sse
			next := bks[j]
			thresh = (edges[b] + edges[next]) / 2
			// The reference partitions on `value <= thresh`: when the
			// midpoint of two adjacent floats rounds up to the right
			// value, that value crosses to the left side.
			cut = b
			if edges[next] <= thresh {
				cut = next
			}
			ok = true
		}
	}
	return bestSSE, thresh, cut, ok
}

// stablePartition reorders arr so samples with feature f's bin <= cut
// come first, preserving relative order on both sides — the binned
// form of builder.partition — and returns the left-side count. The
// side is data-dependent and would mispredict about half the time as a
// branch, so each sample is written to both sides and only the side it
// belongs to advances. cut must be at least -1.
//
//acclaim:zeroalloc
func (t *trainer) stablePartition(arr []int32, f int, cut int32) int {
	col := t.bs.bins[f*t.bs.n : (f+1)*t.bs.n]
	buf := t.part[:len(arr)]
	k := 0
	for j, i := range arr {
		// Bins and cut are small, so cut-bin cannot overflow: its sign
		// bit is 1 exactly when the sample goes right.
		left := int(uint32(cut-col[i])>>31) ^ 1
		arr[k] = i // k <= j: this slot has already been read
		buf[j-k] = i
		k += left
	}
	copy(arr[k:], buf[:len(arr)-k])
	return k
}

// meanSSE32 is meanSSE over an int32 index slice: the same accumulation
// order, so node means and stopping decisions match the reference.
func meanSSE32(y []float64, idx []int32) (mean, sse float64) {
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

// TrainFlat fits a forest on a flat row-major feature matrix (rows ×
// cols, as produced by featspace.Matrix.Data) and y, without
// materializing per-row slices. It trains the same forest Train does
// on the equivalent rows: bin edges are computed once per call from
// the matrix columns and shared across the worker pool.
func TrainFlat(cfg Config, x []float64, cols int, y []float64) (*Forest, error) {
	rows, err := validateFlat(x, cols, y)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(cols)
	bs := newBinset(rows, cols, func(f int, dst []float64) {
		for i := range dst {
			dst[i] = x[i*cols+f]
		}
	})
	return train(cfg, rows, cols, y, func() fitter {
		return &trainer{bs: bs, y: y, cfg: cfg}
	}), nil
}

// TrainMatrix fits a forest directly on an encoded featspace.Matrix —
// the zero-copy training entry point for tuners that already assemble
// their candidate pools into one flat buffer.
func TrainMatrix(cfg Config, m *featspace.Matrix, y []float64) (*Forest, error) {
	return TrainFlat(cfg, m.Data(), m.Cols(), y)
}
