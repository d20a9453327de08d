package benchmark

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"acclaim/internal/cluster"
	"acclaim/internal/coll"
	"acclaim/internal/featspace"
	"acclaim/internal/netmodel"
	"acclaim/internal/sched"
)

func testRunner(t testing.TB, alloc cluster.Allocation) *Runner {
	t.Helper()
	r, err := NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func spec(c coll.Collective, alg string, nodes, ppn, msg int) Spec {
	return Spec{Coll: c, Alg: alg, Point: featspace.Point{Nodes: nodes, PPN: ppn, MsgBytes: msg}}
}

func TestRunBasics(t *testing.T) {
	r := testRunner(t, cluster.TopologyTwoPairs())
	m, err := r.Run(spec(coll.Bcast, "binomial", 8, 2, 4096))
	if err != nil {
		t.Fatal(err)
	}
	if m.MeanTime <= 0 {
		t.Errorf("MeanTime = %v", m.MeanTime)
	}
	// Wall time covers warmup + iters, so it must exceed iters * mean.
	if m.WallTime <= m.MeanTime*float64(r.Config.Iters)*0.9 {
		t.Errorf("WallTime %v inconsistent with MeanTime %v", m.WallTime, m.MeanTime)
	}
}

func TestRunDeterministic(t *testing.T) {
	r := testRunner(t, cluster.TopologyTwoPairs())
	s := spec(coll.Allreduce, "recursive_doubling", 4, 2, 1024)
	m1, err := r.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if m1.MeanTime != m2.MeanTime || m1.WallTime != m2.WallTime {
		t.Error("repeated measurement differs")
	}
}

func TestRunSeedChangesNoise(t *testing.T) {
	alloc := cluster.TopologyTwoPairs()
	r1, _ := NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, Config{Seed: 1})
	r2, _ := NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, Config{Seed: 2})
	s := spec(coll.Bcast, "binomial", 4, 1, 512)
	m1, err := r1.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r2.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if m1.MeanTime == m2.MeanTime {
		t.Error("different seeds produced identical noise")
	}
}

func TestRunErrors(t *testing.T) {
	r := testRunner(t, cluster.TopologyTwoPairs())
	if _, err := r.Run(spec(coll.Bcast, "binomial", 1000, 1, 8)); err == nil {
		t.Error("oversize benchmark should fail")
	}
	if _, err := r.Run(spec(coll.Bcast, "missing", 2, 1, 8)); err == nil {
		t.Error("unknown algorithm should fail")
	}
}

func TestRunSequentialSumsWallTime(t *testing.T) {
	r := testRunner(t, cluster.TopologyTwoPairs())
	specs := []Spec{
		spec(coll.Bcast, "binomial", 4, 1, 512),
		spec(coll.Reduce, "binomial", 8, 1, 512),
	}
	ms, total, err := r.RunSequential(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("measurements = %d", len(ms))
	}
	want := ms[0].WallTime + ms[1].WallTime
	if total != want {
		t.Errorf("total = %v, want %v", total, want)
	}
}

func TestRunParallelFasterThanSequential(t *testing.T) {
	// On the max-parallel topology, several small benchmarks run
	// simultaneously: machine time must drop below sequential.
	r := testRunner(t, cluster.TopologyMaxParallel())
	var specs []Spec
	for i := 0; i < 6; i++ {
		specs = append(specs, spec(coll.Bcast, "binomial", 8, 1, 65536))
	}
	_, seq, err := r.RunSequential(specs)
	if err != nil {
		t.Fatal(err)
	}
	ms, par, waves, err := r.RunParallel(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(specs) {
		t.Fatalf("parallel measurements = %d", len(ms))
	}
	if par >= seq {
		t.Errorf("parallel %v not faster than sequential %v", par, seq)
	}
	if len(waves) == 0 || waves[0] < 2 {
		t.Errorf("expected multi-benchmark waves, got %v", waves)
	}
}

func TestRunParallelSingleRackMatchesSequentialShape(t *testing.T) {
	// One rack: every wave holds one benchmark; machine time ~= sequential.
	r := testRunner(t, cluster.TopologySingleRack())
	var specs []Spec
	for i := 0; i < 3; i++ {
		specs = append(specs, spec(coll.Bcast, "binomial", 4, 1, 4096))
	}
	_, seq, err := r.RunSequential(specs)
	if err != nil {
		t.Fatal(err)
	}
	_, par, waves, err := r.RunParallel(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range waves {
		if w != 1 {
			t.Errorf("single-rack wave parallelism = %d, want 1", w)
		}
	}
	if par != seq {
		t.Errorf("single-rack parallel time %v != sequential %v", par, seq)
	}
}

func TestRunWaveCongestionInflation(t *testing.T) {
	// A hand-built wave that shares a rack must come out slower than
	// the same benchmarks run legally.
	r := testRunner(t, cluster.TopologySingleRack())
	s := spec(coll.Bcast, "binomial", 2, 1, 65536)
	legal, err := r.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	wave := []sched.Placement{
		{Request: sched.Request{ID: 0, Nodes: 2}, NodeIdx: []int{0, 1}},
		{Request: sched.Request{ID: 1, Nodes: 2}, NodeIdx: []int{2, 3}},
	}
	ms, _, err := r.RunWave(wave, map[int]Spec{0: s, 1: s})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range ms {
		if m.MeanTime <= legal.MeanTime {
			t.Errorf("congested run %v not slower than legal %v", m.MeanTime, legal.MeanTime)
		}
	}
}

func TestRunWaveErrors(t *testing.T) {
	r := testRunner(t, cluster.TopologySingleRack())
	if _, _, err := r.RunWave(nil, nil); err == nil {
		t.Error("empty wave should fail")
	}
	wave := []sched.Placement{{Request: sched.Request{ID: 9, Nodes: 2}, NodeIdx: []int{0, 1}}}
	if _, _, err := r.RunWave(wave, map[int]Spec{}); err == nil {
		t.Error("unknown request ID should fail")
	}
}

func TestNewRunnerValidation(t *testing.T) {
	alloc := cluster.TopologySingleRack()
	if _, err := NewRunner(netmodel.Params{}, netmodel.DefaultEnv(), alloc, Config{}); err == nil {
		t.Error("invalid params should fail")
	}
	if _, err := NewRunner(netmodel.DefaultParams(), netmodel.Env{}, alloc, Config{}); err == nil {
		t.Error("invalid env should fail")
	}
	if _, err := NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), cluster.Allocation{}, Config{}); err == nil {
		t.Error("invalid allocation should fail")
	}
	r, err := NewRunner(netmodel.DefaultParams(), netmodel.DefaultEnv(), alloc, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Config.Warmup != 2 || r.Config.Iters != 5 {
		t.Errorf("defaults not applied: %+v", r.Config)
	}
	if r.MaxNodes() != 64 {
		t.Errorf("MaxNodes = %d", r.MaxNodes())
	}
}

func TestSpecString(t *testing.T) {
	s := spec(coll.Bcast, "binomial", 2, 1, 8)
	if s.String() == "" {
		t.Error("empty String()")
	}
}

// TestSpecSeedMatchesFmt pins specSeed's hash input to the bytes of
// the fmt rendering it replaced, so every noise stream is unchanged.
func TestSpecSeedMatchesFmt(t *testing.T) {
	for _, seed := range []int64{0, 1, -7, math.MaxInt64, math.MinInt64} {
		r := &Runner{Config: Config{Seed: seed}}
		for _, s := range []Spec{
			spec(coll.Bcast, "binomial", 8, 2, 4096),
			spec(coll.Alltoall, "scattered", 32, 8, 1<<20),
			spec(coll.ReduceScatter, "", 0, 0, 0),
			spec(coll.Collective(-3), "x|y", -1, 64, 7),
		} {
			h := fnv.New64a()
			fmt.Fprintf(h, "%d|%s|%d|%d|%d|%d",
				s.Coll, s.Alg, s.Point.Nodes, s.Point.PPN, s.Point.MsgBytes, seed)
			if got, want := r.specSeed(s), int64(h.Sum64()); got != want {
				t.Errorf("specSeed(%v, seed %d) = %d, want %d", s, seed, got, want)
			}
		}
	}
}

// TestMeasureMatchesFreshSource: a recycled, reseeded generator draws
// the noise a fresh source would, and measuring allocates nothing once
// a generator is pooled.
func TestMeasureMatchesFreshSource(t *testing.T) {
	r := testRunner(t, cluster.TopologyTwoPairs())
	for i, s := range []Spec{
		spec(coll.Bcast, "binomial", 8, 2, 4096),
		spec(coll.Allgather, "ring", 4, 2, 64),
		spec(coll.Bcast, "binomial", 8, 2, 4096),
	} {
		got := r.measure(s, 100)
		rng := rand.New(rand.NewSource(r.specSeed(s)))
		var sum, wall float64
		for j := 0; j < r.Config.Warmup+r.Config.Iters; j++ {
			f := math.Max(1+rng.NormFloat64()*r.Env.NoiseSigma, 0.5)
			wall += 100 * f
			if j >= r.Config.Warmup {
				sum += 100 * f
			}
		}
		if got.MeanTime != sum/float64(r.Config.Iters) || got.WallTime != wall {
			t.Errorf("spec %d: measure = %+v, want mean %v wall %v", i, got, sum/float64(r.Config.Iters), wall)
		}
	}
	s := spec(coll.Bcast, "binomial", 8, 2, 4096)
	if allocs := testing.AllocsPerRun(200, func() { r.measure(s, 100) }); allocs != 0 {
		t.Errorf("measure allocates %v times per spec", allocs)
	}
}
