// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one named workload from a single process and prints
// every metric by name with its unit; the last line of standard output
// is the JSON result.
//
//	go run . --workload tune-fit --seed 1 --seconds 10 --trace 0
//
// It runs from the repository root (bash perfbench/run.sh builds and
// starts it there) and drives the system only through its public
// functions and existing seams, adding no instrumentation to the
// program.
//
// Workloads:
//
//   - tune-fit: ACCLAiM tunes bcast, allreduce, allgather and reduce for
//     three 16-node x 4-ppn jobs; forest retraining dominates.
//   - tune-collect: alltoall and allgather for three 32-node x 8-ppn
//     jobs; the goroutine-per-rank simulation dominates.
//   - serve-wire: closed-loop batched binary-wire lookups against an
//     in-process WireServer over loopback, 8 zipf-skewed tenants, with
//     tenant 0's rule file reloaded every 20 ms.
//   - serve-http: closed-loop unbatched JSON /v1/select lookups against
//     SelectHandler on an httptest server; tenant 0's rule file is
//     reloaded between serving rounds, away from the load.
//
// Every workload reports every end-to-end metric. A tune workload
// publishes each job's tuned rule file to a ruleserver.Registry and
// answers its evaluation set from it, so its qps, p50_us, p99_us and
// swap metrics describe serving the rules it produced. A serve workload
// scores its served answers against ground truth priced on a simulated
// job, so its slowdown is the quality of what it serves, and its
// tune_wall_s is the time to read, validate, compile and publish every
// tenant's rule file.
//
// Timings are medians: tune_wall_s over tune reps (serve workloads:
// over ingestions timed between serving rounds), qps and the latency
// quantiles over serving rounds of about 250 ms (serve workloads) or
// over tuned jobs (tune workloads), so a short burst of noise on a
// shared host moves a few entries rather than the result.
//
// machine_s, the simulated collection time of tuning, is a per-layer
// metric: the tuned jobs are fixed (see jobSeed), so it reads the same
// on every run and is pinned by the determinism test instead.
//
// With --trace 1 the run alternates untraced and traced passes: the
// traced pass attaches a span recorder and metrics registry and wraps
// the tuning backend in a timer, and the per-layer metrics come from
// it. Metrics of layers a workload does not run read 0. The go.*
// metrics are per untraced tune rep, and per second of the serving
// window.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"
)

// Metric units, by name. The end-to-end set is printed untraced, the
// per-layer set traced; BENCHMARK.json lists the same names.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"tune_wall_s", "s"},
	{"slowdown", "ratio"},
	{"qps", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
	{"swap_p50_ms", "ms"},
	{"swap_p90_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"machine_s", "s"},
	{"core.rounds", "count"},
	{"core.samples", "count"},
	{"core.fit_s", "s"},
	{"core.fit_share", "ratio"},
	{"forest.trees", "count"},
	{"forest.pool_busy_s", "s"},
	{"core.score_s", "s"},
	{"core.score_share", "ratio"},
	{"core.score_ns_per_candidate", "ns"},
	{"core.pick_s", "s"},
	{"core.pick_share", "ratio"},
	{"collect.busy_s", "s"},
	{"collect.share", "ratio"},
	{"collect.specs", "count"},
	{"collect.host_us_per_spec", "us"},
	{"benchmark.noise_draws", "count"},
	{"sched.waves", "count"},
	{"sched.stalls", "count"},
	{"sched.wave_size_mean", "count"},
	{"emit.build_ms", "ms"},
	{"emit.rules", "count"},
	{"compile.ms", "ms"},
	{"emit.share", "ratio"},
	{"index.lookup_ns", "ns"},
	{"registry.lookup_ns", "ns"},
	{"wire.rtt_p50_us", "us"},
	{"wire.rtt_p99_us", "us"},
	{"wire.lookup_share", "ratio"},
	{"lookup.hit_ratio", "ratio"},
	{"swap.read_ms", "ms"},
	{"swap.compile_ms", "ms"},
	{"swap.publish_ms", "ms"},
	{"http.rtt_p50_us", "us"},
	{"http.handler_us", "us"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.unattributed_share", "ratio"},
	{"error_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload measured: every metric it has a value for
// (end-to-end untraced, per-layer traced), its operation counts, and
// any correctness violation beyond wrong answers.
type outcome struct {
	values    map[string]float64
	attempted int
	failed    int
	problems  []string
}

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median.
const setupReps = 5

var workloads = map[string]func(seed int64, window time.Duration, traced bool) (*outcome, error){
	"tune-fit": func(s int64, w time.Duration, t bool) (*outcome, error) { return benchTune(tuneFitSpec, s, w, t, nil) },
	"tune-collect": func(s int64, w time.Duration, t bool) (*outcome, error) {
		return benchTune(tuneCollectSpec, s, w, t, nil)
	},
	"serve-wire": func(s int64, w time.Duration, t bool) (*outcome, error) { return benchServe(false, s, w, t) },
	"serve-http": func(s int64, w time.Duration, t bool) (*outcome, error) { return benchServe(true, s, w, t) },
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: tune-fit, tune-collect, serve-wire or serve-http")
		seed     = flag.Int64("seed", 1, "workload seed")
		secs     = flag.Int("seconds", 10, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	)
	flag.Parse()
	if err := run(*workload, *seed, *secs, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, secs, trace int) error {
	bench, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	if secs < 1 || (trace != 0 && trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	fmt.Println(takeFingerprint())
	o, err := bench(seed, time.Duration(secs)*time.Second, trace == 1)
	if err != nil {
		return err
	}
	res := o.result(trace == 1)
	for _, p := range o.problems {
		fmt.Println("# check failed:", p)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !res.Correct {
		return errors.New("correctness checks failed")
	}
	return nil
}

// result renders the outcome as the output contract: every metric of
// the requested set, in its unit.
func (o *outcome) result(traced bool) result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct:   o.failed == 0 && len(o.problems) == 0 && o.attempted > 0,
		Attempted: max(o.attempted, 1),
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: o.values[d.name], Unit: d.unit}
	}
	return res
}
