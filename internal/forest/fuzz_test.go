package forest

import (
	"math"
	"math/rand"
	"testing"
)

// FuzzTrainDifferential proves the compiled histogram trainer is
// bit-identical to the reference builder: for arbitrary
// hyperparameters and data (derived deterministically from the fuzzed
// inputs), trainReference and Train must produce node-for-node equal
// forests — and Train must produce that same forest at every worker
// count. This is the training-side mirror of FuzzCompiledDifferential,
// and the proof obligation behind swapping the trainer in as Train's
// default path.
//
// The derivation reaches the tuner's shape: up to 7 features, depth up
// to 14 with MinLeaf 1, and three data modes — continuous values, a
// duplicate-heavy mode that floods nodes with tied feature values, and
// (seed bit 6) a tuner-shaped mode of power-of-two columns with a
// globally constant column, like P2Frac(nodes) on a power-of-two grid,
// and a column that is a function of two others, like Log2(Ranks).
//
// Seeded corpus below; CI runs this target for 30s per push (the
// fuzz-smoke job).
func FuzzTrainDifferential(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), uint8(1), uint8(40), false)
	f.Add(int64(9), uint8(6), uint8(3), uint8(2), uint8(90), true) // tie-heavy, MTry<nf
	f.Add(int64(-5), uint8(1), uint8(1), uint8(1), uint8(2), true) // single stump, 2 samples
	f.Add(int64(77), uint8(5), uint8(6), uint8(9), uint8(70), false)
	f.Add(int64(69), uint8(7), uint8(13), uint8(0), uint8(119), false) // tuner-shaped, 7 features, depth 14, MinLeaf 1
	f.Add(int64(68), uint8(3), uint8(9), uint8(5), uint8(60), true)    // tuner-shaped, 6 features, MTry<nf
	f.Fuzz(func(t *testing.T, seed int64, nTrees, depth, minLeaf, nSamples uint8, discrete bool) {
		nt := int(nTrees)%8 + 1
		md := int(depth)%14 + 1
		ml := int(minLeaf)%5 + 1
		ns := int(nSamples)%120 + 1
		nf := int(seed&7)%6 + 2             // 2-7 features
		mtry := (int(seed>>3)%nf+nf)%nf + 1 // 1..nf, negative seeds included
		shaped := seed&64 != 0

		rng := rand.New(rand.NewSource(seed))
		x := make([][]float64, ns)
		y := make([]float64, ns)
		for i := range x {
			row := make([]float64, nf)
			for j := range row {
				switch {
				case shaped:
					row[j] = float64(int(1) << rng.Intn(5)) // few power-of-two bins
				case discrete:
					row[j] = float64(rng.Intn(4)) // heavy ties exercise stable order
				default:
					row[j] = rng.NormFloat64() * 10
				}
			}
			if shaped {
				row[0] = 0 // constant in every node: dead from the root
				if nf >= 4 {
					row[nf-1] = math.Log2(row[1] * row[2])
				}
			}
			x[i] = row
			y[i] = row[1%nf] - row[(nf-1)/2]*0.5 + rng.NormFloat64()
		}

		cfg := Config{NTrees: nt, MaxDepth: md, MinLeaf: ml, MTry: mtry, Seed: seed, Workers: 1}
		want, err := trainReference(cfg, x, y)
		if err != nil {
			t.Fatalf("training the reference forest: %v", err)
		}
		for _, workers := range []int{1, 2, 5, 13} {
			c := cfg
			c.Workers = workers
			got, err := Train(c, x, y)
			if err != nil {
				t.Fatalf("training the compiled forest (workers=%d): %v", workers, err)
			}
			if !forestsIdentical(want, got) {
				t.Fatalf("compiled trainer differs from reference builder at Workers=%d (nt=%d md=%d ml=%d mtry=%d ns=%d nf=%d discrete=%v shaped=%v)",
					workers, nt, md, ml, mtry, ns, nf, discrete, shaped)
			}
		}
	})
}

// FuzzCompiledDifferential proves Forest.Compile is observationally
// identical to the reference pointer-walk path: for an arbitrary
// trained forest (hyperparameters and data derived deterministically
// from the fuzzed inputs) and an arbitrary query batch, the compiled
// Predict / PredictBatch / JackknifeVarianceBatch must reproduce the
// reference results bit for bit. Two Workers settings are compared per
// input — trained forests are bit-identical across worker counts, so
// the pair also pins kernel results to be worker-independent. Shapes
// deliberately sweep the degenerate corners: single trees, pure-leaf
// trees (constant targets), empty batches, and batches straddling the
// blockQ tile boundary.
//
// Seeded corpus below; CI runs this target for 30s per push (the
// fuzz-smoke job).
func FuzzCompiledDifferential(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), uint8(40), uint8(10), false)
	f.Add(int64(7), uint8(1), uint8(6), uint8(80), uint8(130), false) // NTrees=1, nq > blockQ
	f.Add(int64(42), uint8(8), uint8(1), uint8(30), uint8(65), true)  // stumps on constant target
	f.Add(int64(-3), uint8(3), uint8(5), uint8(50), uint8(0), false)  // empty batch
	f.Fuzz(func(t *testing.T, seed int64, nTrees, depth, nSamples, nQueries uint8, constant bool) {
		nt := int(nTrees)%8 + 1
		md := int(depth)%6 + 1
		ns := int(nSamples)%100 + 2
		nq := int(nQueries) % 160
		nf := int(seed&3) + 2 // 2-5 features

		rng := rand.New(rand.NewSource(seed))
		x := make([][]float64, ns)
		y := make([]float64, ns)
		for i := range x {
			row := make([]float64, nf)
			for j := range row {
				row[j] = rng.NormFloat64() * 10
			}
			x[i] = row
			if constant {
				y[i] = 3.25 // pure-leaf trees: every split collapses
			} else {
				y[i] = row[0]*row[1%nf] + rng.NormFloat64()
			}
		}
		qs := make([][]float64, nq)
		for i := range qs {
			row := make([]float64, nf)
			for j := range row {
				row[j] = rng.NormFloat64() * 12
			}
			qs[i] = row
		}

		cfg := Config{NTrees: nt, MaxDepth: md, Seed: seed, Workers: 1}
		ref, err := Train(cfg, x, y)
		if err != nil {
			t.Fatalf("training the reference forest: %v", err)
		}
		cfg.Workers = int(nQueries)%4 + 1
		alt, err := Train(cfg, x, y) // bit-identical forest, different pool size
		if err != nil {
			t.Fatalf("training the alternate forest: %v", err)
		}

		wantP := ref.PredictBatch(qs)
		wantV := ref.JackknifeVarianceBatch(qs)
		for _, k := range []*Kernel{ref.Compile(), alt.Compile()} {
			gotP := k.PredictBatch(qs)
			gotV := k.JackknifeVarianceBatch(qs)
			if len(gotP) != nq || len(gotV) != nq {
				t.Fatalf("kernel returned %d/%d rows, want %d", len(gotP), len(gotV), nq)
			}
			for i := range qs {
				if gotP[i] != wantP[i] {
					t.Fatalf("PredictBatch[%d]: kernel %v != reference %v (workers=%d)", i, gotP[i], wantP[i], cfg.Workers)
				}
				if gotV[i] != wantV[i] {
					t.Fatalf("JackknifeVarianceBatch[%d]: kernel %v != reference %v (workers=%d)", i, gotV[i], wantV[i], cfg.Workers)
				}
			}
			for i := 0; i < nq && i < 5; i++ {
				if got, want := k.Predict(qs[i]), ref.Predict(qs[i]); got != want {
					t.Fatalf("Predict[%d]: kernel %v != reference %v", i, got, want)
				}
			}
		}
	})
}
