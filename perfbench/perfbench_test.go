package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"
	"time"

	"acclaim/internal/coll"
	"acclaim/internal/loadgen"
	"acclaim/internal/obs"
	"acclaim/internal/rules"
)

// TestMain runs the tests from the repository root, where the benchmark
// itself runs and finds testdata/rules.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// smallTune is a tune workload small enough for tests; it runs the same
// code as tune-fit and tune-collect.
var smallTune = tuneSpec{nodes: 8, ppn: 2, jobs: 1, colls: []coll.Collective{coll.Bcast, coll.Allreduce}}

// deterministic are the metrics that must not depend on timing,
// GOMAXPROCS or tracing.
var deterministic = []string{"machine_s", "slowdown", "core.rounds", "core.samples"}

func tuneOnce(t *testing.T, procs int, traced bool) map[string]float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	o, err := benchTune(smallTune, 7, 0, traced, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res := o.result(traced); !res.Correct {
		t.Fatalf("GOMAXPROCS=%d traced=%v: run not correct: %+v %v", procs, traced, res, o.problems)
	}
	return o.values
}

func TestTuneDeterminism(t *testing.T) {
	base := tuneOnce(t, 2, false)
	runs := map[string]map[string]float64{
		"second run":          tuneOnce(t, 2, false),
		"GOMAXPROCS=1":        tuneOnce(t, 1, false),
		"traced":              tuneOnce(t, 2, true),
		"traced GOMAXPROCS=1": tuneOnce(t, 1, true),
	}
	for name, got := range runs {
		for _, m := range deterministic {
			if got[m] != base[m] {
				t.Errorf("%s: %s = %v, want %v", name, m, got[m], base[m])
			}
		}
	}
	// Every collected spec is one training sample.
	for _, name := range []string{"traced", "traced GOMAXPROCS=1"} {
		if got := runs[name]["collect.specs"]; got != base["core.samples"] {
			t.Errorf("%s: collect.specs = %v, want core.samples %v", name, got, base["core.samples"])
		}
	}
	if base["machine_s"] <= 0 || base["slowdown"] < 1 || base["core.rounds"] <= 0 {
		t.Errorf("implausible tune metrics: %v", base)
	}
}

// TestTracedSplitAddsUp checks that the layer self times account for the
// traced wall time, which is clocked apart from the spans, leaving a
// small unattributed residual.
func TestTracedSplitAddsUp(t *testing.T) {
	v := tuneOnce(t, 2, true)
	if u := v["trace.unattributed_share"]; u < 0 || u > 0.1 {
		t.Errorf("layer self times leave %v of the traced wall time unattributed, want [0, 0.1]", u)
	}
	if v["core.fit_s"] <= 0 || v["collect.busy_s"] <= 0 || v["forest.trees"] <= 0 || v["sched.waves"] <= 0 {
		t.Errorf("traced run recorded no layer work: %v", v)
	}
}

// TestCorruptedRuleFileFails corrupts every tuned rule file after it is
// compiled, so the table walk no longer agrees with the compiled index.
func TestCorruptedRuleFileFails(t *testing.T) {
	corrupt := func(f *rules.File) {
		for _, tab := range f.Tables {
			for i := range tab.Buckets {
				for j := range tab.Buckets[i].PPNs {
					for k := range tab.Buckets[i].PPNs[j].Rules {
						tab.Buckets[i].PPNs[j].Rules[k].Alg += "-corrupt"
					}
				}
			}
		}
	}
	o, err := benchTune(smallTune, 7, 0, false, corrupt)
	if err != nil {
		t.Fatal(err)
	}
	res := o.result(false)
	if res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted rule files passed the checks: %+v", res)
	}
}

// corruptTarget damages every answer a transport target returns.
type corruptTarget struct{ loadgen.Target }

func (c corruptTarget) Select(q loadgen.Query) (string, bool, error) {
	alg, ok, err := c.Target.Select(q)
	return alg + "-corrupt", ok, err
}

func (c corruptTarget) SelectBatch(qs []loadgen.Query, res []loadgen.Result) error {
	err := c.Target.(loadgen.BatchTarget).SelectBatch(qs, res)
	for i := range qs {
		res[i].Alg += "-corrupt"
	}
	return err
}

func serveShort(t *testing.T, httpMode, corrupt, traced bool) *outcome {
	t.Helper()
	w, err := setupServe(httpMode, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if corrupt {
		w.target = corruptTarget{w.target}
		w.checker.inner = w.target
	}
	o, err := w.bench(&outcome{values: map[string]float64{}}, 500*time.Millisecond, traced,
		[]time.Duration{time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestServeChecks(t *testing.T) {
	for _, httpMode := range []bool{false, true} {
		if res := serveShort(t, httpMode, false, false).result(false); !res.Correct || res.Failed != 0 {
			t.Errorf("http=%v: clean run failed its checks: %+v", httpMode, res)
		}
		if res := serveShort(t, httpMode, true, false).result(false); res.Correct || res.Failed == 0 {
			t.Errorf("http=%v: corrupted answers passed the checks: %+v", httpMode, res)
		}
		o := serveShort(t, httpMode, false, true)
		if res := o.result(true); !res.Correct {
			t.Errorf("http=%v: traced run failed its checks: %+v %v", httpMode, res, o.problems)
		}
		for _, m := range []string{"index.lookup_ns", "registry.lookup_ns", "swap.read_ms", "swap.compile_ms", "lookup.hit_ratio"} {
			if o.values[m] <= 0 {
				t.Errorf("http=%v: traced run has %s = %v", httpMode, m, o.values[m])
			}
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []obs.Span{
		{ID: 1, Name: "job", StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, Name: "emit", StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, Name: "compile", StartNs: 50, EndNs: 60},
		{ID: 4, Parent: 2, Name: "inner", StartNs: 20, EndNs: 25},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"job": 60, "emit": 25, "compile": 10, "inner": 5}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self time of %s = %v, want %v", k, got[k], v)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the program
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []def `json:"workloads"`
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the program %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
}
