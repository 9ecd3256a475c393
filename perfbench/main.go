// Command perfbench is the repository's end-to-end benchmark. One
// invocation runs one workload for a fixed measuring time, checks the
// workload's outputs, and prints one JSON result line:
//
//	perfbench --workload adv-abr-mpc --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// nothing wrapped around the system. With --trace 1 the same workload runs
// once untraced and once with timing wrappers inserted around the calls into
// each layer, and the result carries the per-layer metrics plus the tracing
// overhead. The program drives the system only through the public functions
// of internal/core, rl, abr, cc, netem, dist and serve. README.md lists the
// workloads, the metrics and the layer each one belongs to.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef names one metric and its unit exactly as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// rateLevels are the suffixes of the per-rate serving metrics.
var rateLevels = []string{"low", "mid", "high"}

// endToEnd lists the metrics a --trace 0 run prints, on every workload.
var endToEnd = func() []metricDef {
	defs := []metricDef{{"samples_per_s", "1/s"}, {"setup_s", "s"}, {"peak_rss_mb", "MB"}}
	for _, l := range rateLevels {
		defs = append(defs, metricDef{"lat_p50_us." + l, "us"})
	}
	return defs
}()

// perLayer lists the metrics a --trace 1 run prints. A workload that does not
// exercise a layer reports that layer's figures as 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"trace.overhead_pct", "%"},
		{"abr.select_us", "us"},
		{"abr.select_calls", "1/iter"},
		{"abr.window_optimal_us", "us"},
		{"core.env_step_us", "us"},
		{"core.env_self_us", "us"},
		{"rl.rollout_ms", "ms"},
		{"rl.update_ms", "ms"},
		{"rl.policy_self_ms", "ms"},
		{"rl.allocs_per_sample", "count"},
		{"rl.alloc_bytes_per_sample", "B"},
		{"cc.callback_us", "us"},
		{"netem.packets_per_step", "count"},
		{"cc.acks_per_step", "count"},
		{"cc.losses_per_step", "count"},
		{"cc.timeouts", "1/round"},
		{"dist.iteration_ms", "ms"},
		{"dist.update_ms", "ms"},
		{"dist.collect_wait_ms", "ms"},
		{"dist.wire_bytes_per_iter", "B"},
		{"dist.reassignments", "count"},
		{"dist.inproc_rollout_ms", "ms"},
		{"dist.worker_peak_rss_mb", "MB"},
	}
	for _, fam := range []metricDef{
		{"serve.due_p99_us", "us"},
		{"serve.engine_p50_us", "us"},
		{"serve.engine_p99_us", "us"},
		{"serve.batch_mean", "count"},
		{"serve.allocs_per_req", "count"},
		{"loadgen.late_p99_us", "us"},
	} {
		for _, l := range rateLevels {
			defs = append(defs, metricDef{fam.name + "." + l, fam.unit})
		}
	}
	return defs
}()

// options are the command-line settings every workload receives.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
}

// report is what a workload hands back.
type report struct {
	attempted, failed int64
	checkErr          error // first failed correctness check; nil when all passed
	values            map[string]float64
}

func newReport() *report { return &report{values: map[string]float64{}} }

func (r *report) set(name string, v float64) { r.values[name] = v }

// check records err as a correctness failure; only the first is kept.
func (r *report) check(err error) {
	if err != nil && r.checkErr == nil {
		r.checkErr = err
	}
}

var workloads = map[string]func(options) (*report, error){
	"adv-abr-mpc":   runABRMPC,
	"adv-cc-bbr":    runCCBBR,
	"dist-pensieve": runDistPensieve,
	"serve-open":    runServeOpen,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all to run every workload in turn")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measuring time in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	worker := fs.String("dist-worker", "", "serve as a dist rollout worker for the coordinator at this address")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *worker != "" {
		return runDistWorker(*worker, stdout, stderr)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	if *name != "all" {
		if workloads[*name] == nil {
			fmt.Fprintf(stderr, "perfbench: unknown --workload %q (want all or one of %v)\n", *name, names)
			return 2
		}
		names = []string{*name}
	}
	o := options{seed: *seed, seconds: float64(*seconds), trace: *trace == 1}
	for _, n := range names {
		if code := runWorkload(n, o, stdout, stderr); code != 0 {
			return code
		}
	}
	return 0
}

// runWorkload runs one workload and prints its result line.
func runWorkload(name string, o options, stdout, stderr io.Writer) int {
	rep, err := workloads[name](o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	res, err := assemble(rep, o.trace)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
		return 1
	}
	if rep.checkErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: output check failed: %v\n", name, rep.checkErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// assemble turns a workload report into the printed result. Every
// end-to-end metric must be present; a per-layer metric the workload does
// not reach reads 0.
func assemble(rep *report, traced bool) (result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if rep.attempted < 1 {
		return result{}, errors.New("no operation was attempted")
	}
	res := result{
		Correct:   rep.checkErr == nil,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !traced {
			return result{}, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	return res, nil
}
