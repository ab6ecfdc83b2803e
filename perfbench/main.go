// Command perfbench is the repository benchmark: it drives the HARMLESS
// chain (legacy switch + S4 group node + in-process learning
// controller) and the fleet simulator through their public Go APIs,
// checks that every operation's output is correct, and prints one JSON
// result line.
//
//	perfbench --workload chain-fastpath --seed 1 --seconds 45 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 runs the
// workload again with spans at every layer boundary and prints the
// per-layer metrics instead. The exit code is 0 when every correctness
// gate held, 1 when a gate failed (the result line is still printed
// with "correct": false), and 2 on a usage or set-up error (no result
// line). Metric definitions, the layer -> end-to-end mapping and the
// workload rationale are in README.md next to this file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runConfig is what a workload receives from the command line.
type runConfig struct {
	seed     int64
	duration time.Duration
	trace    bool
	traceDir string // where the traced run writes its spans
}

// workloads maps each workload name to its runner. A runner returns an
// error only when it could not run at all; failed operations are
// reported through result.Failed.
var workloads = map[string]func(runConfig) (result, error){
	"chain-fastpath": func(c runConfig) (result, error) { return runFastpath(c, defaultChain()) },
	"fleet-sim":      func(c runConfig) (result, error) { return runFleet(c, defaultFleet()) },
}

func main() {
	workload := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "measurement time per run, seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := flag.String("trace-dir", ".bench_build/trace", "directory for span output of traced runs")
	flag.Parse()
	// One P: the closed-loop caller, the control-plane goroutines and
	// the garbage collector share it, so a flow setup's round trip is
	// measured as the work it takes, not as cross-CPU wake-up latency,
	// which on a shared host swings by milliseconds from run to run.
	runtime.GOMAXPROCS(1)

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds > 0, --trace 0|1\n", names)
		os.Exit(2)
	}
	res, err := run(runConfig{
		seed:     *seed,
		duration: time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		traceDir: *traceDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(2)
	}
	if err := checkMetricSet(res.Metrics, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// finish fills Correct from the failure count.
func (r *result) finish() {
	r.Correct = r.Attempted > 0 && r.Failed == 0
}

// set records one metric, taking its unit from the metric catalogue.
func (r *result) set(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}
