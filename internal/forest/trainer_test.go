package forest

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"acclaim/internal/featspace"
)

// trainerData builds a dataset with deliberately duplicate-heavy
// columns: feature values are drawn from small integer grids, so nodes
// are full of ties and the stable-order contract between the reference
// sort and the trainer's counting sort actually carries weight.
func trainerData(seed int64, n, nf int) (x [][]float64, y []float64) {
	rng := rand.New(rand.NewSource(seed))
	x = make([][]float64, n)
	y = make([]float64, n)
	for i := range x {
		row := make([]float64, nf)
		for j := range row {
			row[j] = float64(rng.Intn(6)) // 6 distinct values per feature
		}
		x[i] = row
		y[i] = row[0]*2 - row[nf-1] + rng.NormFloat64()*0.3
	}
	return x, y
}

// TestTrainerMatchesReference is the serial form of the differential
// contract: on tie-heavy data and across hyperparameter corners, the
// compiled trainer's forest equals the reference builder's node for
// node.
func TestTrainerMatchesReference(t *testing.T) {
	x, y := trainerData(101, 250, 4)
	for _, cfg := range []Config{
		{Seed: 1, NTrees: 9},
		{Seed: 2, NTrees: 5, MaxDepth: 3},
		{Seed: 3, NTrees: 7, MinLeaf: 7},
		{Seed: 4, NTrees: 6, MTry: 1},
		{Seed: 5, NTrees: 4, MTry: 2, MaxDepth: 5, MinLeaf: 2},
	} {
		cfg.Workers = 1
		want, err := trainReference(cfg, x, y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Train(cfg, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if !forestsIdentical(want, got) {
			t.Errorf("cfg %+v: compiled trainer differs from reference builder", cfg)
		}
	}
}

// TestTrainerConstantTargets: constant-target columns make every
// node's SSE zero, so growth must stop at the root of every tree (the
// sse <= 1e-12 bail), matching the reference exactly.
func TestTrainerConstantTargets(t *testing.T) {
	x, _ := trainerData(7, 80, 3)
	y := make([]float64, len(x))
	for i := range y {
		y[i] = -2.5
	}
	cfg := Config{Seed: 11, NTrees: 6, Workers: 1}
	want, _ := trainReference(cfg, x, y)
	got, err := Train(cfg, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !forestsIdentical(want, got) {
		t.Fatal("constant-target forests differ")
	}
	for _, tr := range got.trees {
		if len(tr.nodes) != 1 || tr.nodes[0].value != -2.5 {
			t.Fatalf("constant-target tree = %+v, want single leaf at -2.5", tr.nodes)
		}
	}
}

// TestTrainerSingleSample: a one-row training set means every
// bootstrap is that single sample — the len(idx) < 2*MinLeaf bail on
// a one-element node.
func TestTrainerSingleSample(t *testing.T) {
	x := [][]float64{{1.5, -3}}
	y := []float64{42}
	cfg := Config{Seed: 13, NTrees: 5, Workers: 1}
	want, _ := trainReference(cfg, x, y)
	got, err := Train(cfg, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !forestsIdentical(want, got) {
		t.Fatal("single-sample forests differ")
	}
	if p := got.Predict([]float64{0, 0}); p != 42 {
		t.Errorf("single-sample prediction = %v, want 42", p)
	}
}

// TestTrainerAllEqualFeature: a feature whose values are all equal has
// one bin and no candidate boundary — the "cannot split between equal
// values" branch. With MTry=1 some splits draw only that feature and
// must fall back to a leaf, exactly as the reference does.
func TestTrainerAllEqualFeature(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 120
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = []float64{3.75, float64(rng.Intn(4))} // feature 0 is constant
		y[i] = x[i][1] + rng.NormFloat64()*0.1
	}
	cfg := Config{Seed: 19, NTrees: 8, MTry: 1, Workers: 1}
	want, _ := trainReference(cfg, x, y)
	got, err := Train(cfg, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !forestsIdentical(want, got) {
		t.Fatal("all-equal-feature forests differ")
	}
	for _, tr := range got.trees {
		for _, nd := range tr.nodes {
			if nd.left != -1 && nd.feature == 0 {
				t.Fatal("tree split on a constant feature")
			}
		}
	}
}

// TestTrainerWorkerCounts pins the Workers-independence contract on
// the compiled path itself (the fuzz target additionally compares
// against the reference).
func TestTrainerWorkerCounts(t *testing.T) {
	x, y := trainerData(23, 300, 5)
	cfg := Config{Seed: 29, NTrees: 12, MTry: 3}
	cfg.Workers = 1
	want, err := Train(cfg, x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4, 7, 16} {
		c := cfg
		c.Workers = w
		got, err := Train(c, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if !forestsIdentical(want, got) {
			t.Fatalf("Workers=%d forest differs from Workers=1", w)
		}
	}
}

// TestTrainSharedRace exercises the shared read-only binset from many
// trainer goroutines at once — concurrent Train calls on the same
// rows, each with a multi-worker pool. Run under -race in CI, it
// proves the trainer's sharing discipline: binset immutable, all
// scratch goroutine-local.
func TestTrainSharedRace(t *testing.T) {
	x, y := trainerData(31, 200, 4)
	var wg sync.WaitGroup
	forests := make([]*Forest, 6)
	for g := range forests {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f, err := Train(Config{Seed: 37, NTrees: 10, Workers: 4}, x, y)
			if err != nil {
				t.Error(err)
				return
			}
			forests[g] = f
		}(g)
	}
	wg.Wait()
	for g := 1; g < len(forests); g++ {
		if !forestsIdentical(forests[0], forests[g]) {
			t.Fatalf("concurrent Train call %d produced a different forest", g)
		}
	}
}

// TestTrainFlatMatchesTrain: the flat entry points train the same
// forest as the row-of-slices API on equivalent data.
func TestTrainFlatMatchesTrain(t *testing.T) {
	x, y := trainerData(41, 150, featspace.NumFeatures)
	cfg := Config{Seed: 43, NTrees: 8, Workers: 1}
	want, err := Train(cfg, x, y)
	if err != nil {
		t.Fatal(err)
	}

	flat := make([]float64, 0, len(x)*featspace.NumFeatures)
	var m featspace.Matrix
	for _, row := range x {
		flat = append(flat, row...)
		m.AppendRow(row...)
	}
	got, err := TrainFlat(cfg, flat, featspace.NumFeatures, y)
	if err != nil {
		t.Fatal(err)
	}
	if !forestsIdentical(want, got) {
		t.Fatal("TrainFlat forest differs from Train")
	}
	got2, err := TrainMatrix(cfg, &m, y)
	if err != nil {
		t.Fatal(err)
	}
	if !forestsIdentical(want, got2) {
		t.Fatal("TrainMatrix forest differs from Train")
	}
}

func TestTrainFlatValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		x    []float64
		cols int
		y    []float64
	}{
		{"zero cols", []float64{1, 2}, 0, []float64{1}},
		{"ragged flat", []float64{1, 2, 3}, 2, []float64{1}},
		{"empty", nil, 2, nil},
		{"target mismatch", []float64{1, 2, 3, 4}, 2, []float64{1, 2, 3}},
	} {
		if _, err := TrainFlat(Config{}, tc.x, tc.cols, tc.y); err == nil {
			t.Errorf("%s: TrainFlat accepted invalid input", tc.name)
		}
	}
}

// TestBinsetRoundTrip: bins are value ranks, edges recover the value.
func TestBinsetRoundTrip(t *testing.T) {
	x, _ := trainerData(47, 90, 3)
	bs := newBinset(len(x), 3, func(f int, dst []float64) {
		for i, row := range x {
			dst[i] = row[f]
		}
	})
	for f := 0; f < 3; f++ {
		edges := bs.edges[f]
		for j := 1; j < len(edges); j++ {
			if edges[j] <= edges[j-1] {
				t.Fatalf("feature %d edges not strictly increasing: %v", f, edges)
			}
		}
		for i, row := range x {
			if got := edges[bs.bins[f*bs.n+i]]; got != row[f] {
				t.Fatalf("feature %d sample %d: edges[bin] = %v, value = %v", f, i, got, row[f])
			}
		}
	}
}

// TestTrainerSteadyStateZeroAlloc is the runtime gate behind the
// //acclaim:zeroalloc annotations in trainer.go: once scratch is
// warmed (ensure + one tree grown), order building, the splittable
// test, split scanning, and partitioning allocate nothing, and a whole
// tree — in-place reseed included — allocates only the node copy the
// Forest retains.
func TestTrainerSteadyStateZeroAlloc(t *testing.T) {
	x, y := trainerData(53, 220, 4)
	cfg := Config{Seed: 59, NTrees: 1, Workers: 1}.withDefaults(4)
	bs := newBinset(len(x), 4, func(f int, dst []float64) {
		for i, row := range x {
			dst[i] = row[f]
		}
	})
	tr := &trainer{bs: bs, y: y, cfg: cfg}
	boot := make([]int, len(x))
	for i := range boot {
		boot[i] = i
	}
	tr.fitTree(61, boot) // warm every scratch buffer

	if n := testing.AllocsPerRun(100, func() { tr.buildOrders() }); n != 0 {
		t.Errorf("buildOrders allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { tr.splittable(0, 0, tr.nb) }); n != 0 {
		t.Errorf("splittable allocates %v times per run, want 0", n)
	}
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		_, th, _, _ := t2ScanAll(tr)
		sink += th
	}); n != 0 {
		t.Errorf("scanFeature allocates %v times per run, want 0", n)
	}
	_ = sink
	cut := int32(2)
	if n := testing.AllocsPerRun(100, func() {
		tr.stablePartition(tr.idx, 0, cut)
	}); n != 0 {
		t.Errorf("stablePartition allocates %v times per run, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { tr.fitTree(61, boot) }); n != 1 {
		t.Errorf("fitTree allocates %v times per tree, want 1 (the retained node copy)", n)
	}
}

// t2ScanAll drives scanFeature over every feature of the warm trainer's
// root node (helper for the allocation gate; the return values keep
// the call from being optimized away).
func t2ScanAll(tr *trainer) (feat int, thresh float64, cut int32, ok bool) {
	for f := 0; f < tr.bs.nf; f++ {
		if _, th, c, o := tr.scanFeature(f, 0, tr.nb, 1e18); o {
			feat, thresh, cut, ok = f, th, c, o
		}
	}
	return feat, thresh, cut, ok
}

// tunerShapedData builds the training set the tuner fits on each
// round: rows distinct (point, algorithm) candidates of the
// P2Grid(16,4,8,1<<20) space encoded with the production features, and
// log-time targets from a latency-bandwidth cost per algorithm. On a
// power-of-two grid both P2Frac columns are constant zero, Log2(Ranks)
// is a function of the nodes and ppn columns, and every column has few
// distinct values — the shape the continuous-valued BenchmarkTrain*
// data never reaches.
func tunerShapedData(seed int64, rows int) (m *featspace.Matrix, x [][]float64, y []float64) {
	pts := featspace.P2Grid(16, 4, 8, 1<<20).Points()
	const algs = 3
	lat := [algs]float64{2, 1, 4}
	bw := [algs]float64{1, 2, 0.5}
	rng := rand.New(rand.NewSource(seed))
	m = new(featspace.Matrix)
	m.Reset(featspace.NumFeatures)
	for _, c := range rng.Perm(len(pts) * algs)[:rows] {
		pt, a := pts[c/algs], c%algs
		m.AppendPoint(pt, a)
		r := float64(pt.Ranks())
		cost := lat[a]*featspace.Log2(pt.Ranks()) + bw[a]*float64(pt.MsgBytes)*(r-1)/r/1e3
		y = append(y, math.Log(cost)+rng.NormFloat64()*0.02)
	}
	data := m.Data()
	for i := 0; i < m.Rows(); i++ {
		x = append(x, data[i*featspace.NumFeatures:(i+1)*featspace.NumFeatures])
	}
	return m, x, y
}

// TestTrainerTunerShapedMatchesReference pins bit-identity on the
// tuner's own training shape: constant columns that are dead from the
// root, a derived column, few bins per feature, and the default deep
// trees. TrainMatrix and Train must reproduce trainReference node for
// node at one and two workers.
func TestTrainerTunerShapedMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		rows int
		cfg  Config
	}{
		{1, 150, Config{NTrees: 60}},
		{2, 40, Config{NTrees: 20, MinLeaf: 2}},
		{3, 300, Config{NTrees: 12, MTry: 3}},
		{4, 150, Config{NTrees: 16, MaxDepth: 5}},
	} {
		m, x, y := tunerShapedData(tc.seed, tc.rows)
		cfg := tc.cfg
		cfg.Seed = tc.seed
		cfg.Workers = 1
		want, err := trainReference(cfg, x, y)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			cfg.Workers = workers
			got, err := TrainMatrix(cfg, m, y)
			if err != nil {
				t.Fatal(err)
			}
			if !forestsIdentical(want, got) {
				t.Errorf("seed %d rows %d cfg %+v: TrainMatrix differs from the reference builder", tc.seed, tc.rows, cfg)
			}
			got, err = Train(cfg, x, y)
			if err != nil {
				t.Fatal(err)
			}
			if !forestsIdentical(want, got) {
				t.Errorf("seed %d rows %d cfg %+v: Train differs from the reference builder", tc.seed, tc.rows, cfg)
			}
		}
	}
}

// TestStablePartitionEdges checks the branchless partition against a
// plain two-list stable partition at the cut's extremes: below the
// lowest bin (everything right), at the lowest bin, inside the range,
// at the highest bin (everything left), and on segments that fall
// entirely on one side of a cut inside the column's range.
func TestStablePartitionEdges(t *testing.T) {
	vals := []float64{5, 1, 3, 3, 9, 1, 7, 5, 9, 3}
	bs := newBinset(len(vals), 1, func(_ int, dst []float64) { copy(dst, vals) })
	tr := &trainer{bs: bs, part: make([]int32, len(vals))}
	col := bs.bins
	all := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	low := []int32{1, 2, 3, 5, 9} // bins 0 and 1 only
	high := []int32{4, 6, 8}      // bins 3 and 4 only
	maxBin := int32(len(bs.edges[0]) - 1)
	for _, tc := range []struct {
		name string
		arr  []int32
		cut  int32
	}{
		{"cut below the minimum bin", all, -1},
		{"cut at the minimum bin", all, 0},
		{"cut mid-range", all, 2},
		{"cut at the maximum bin", all, maxBin},
		{"all samples left", low, 2},
		{"all samples right", high, 2},
		{"single sample", []int32{7}, 2},
	} {
		var wantL, wantR []int32
		for _, i := range tc.arr {
			if col[i] <= tc.cut {
				wantL = append(wantL, i)
			} else {
				wantR = append(wantR, i)
			}
		}
		arr := append([]int32(nil), tc.arr...)
		k := tr.stablePartition(arr, 0, tc.cut)
		want := append(wantL, wantR...)
		if k != len(wantL) {
			t.Errorf("%s: left count %d, want %d", tc.name, k, len(wantL))
		}
		for j := range want {
			if arr[j] != want[j] {
				t.Errorf("%s: partition %v, want %v", tc.name, arr, want)
				break
			}
		}
	}
}

// TestTrainNonFinite: a NaN or infinite feature or target is rejected
// with an error by every entry point — before binning, where a NaN
// would rank past the edge table, and before the worker pool, where a
// panic would kill the process.
func TestTrainNonFinite(t *testing.T) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, v := range bad {
		for _, inTarget := range []bool{false, true} {
			x, y := trainerData(67, 40, 3)
			if inTarget {
				y[17] = v
			} else {
				x[17][1] = v
			}
			flat := make([]float64, 0, len(x)*3)
			for _, row := range x {
				flat = append(flat, row...)
			}
			for _, workers := range []int{1, 2} {
				cfg := Config{Seed: 71, NTrees: 4, Workers: workers}
				where := fmt.Sprintf("value %v in target=%v, workers=%d", v, inTarget, workers)
				if _, err := Train(cfg, x, y); err == nil {
					t.Errorf("Train accepted %s", where)
				}
				if _, err := TrainFlat(cfg, flat, 3, y); err == nil {
					t.Errorf("TrainFlat accepted %s", where)
				}
				if _, err := trainReference(cfg, x, y); err == nil {
					t.Errorf("trainReference accepted %s", where)
				}
			}
		}
	}
}
