// Command perfbench is cilkgo's benchmark: one program, four in-process
// workloads (forkjoin, loops, serve, analyze), every output checked.
//
//	perfbench --workload forkjoin --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// records spans around the calls into each layer and reports the per-layer
// metrics instead. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// config is what every workload receives: its seed, how long to measure,
// whether to trace, and the worker count P.
type config struct {
	seed    int64
	measure time.Duration
	trace   bool
	procs   int
}

// setupReps is how many times each workload sets itself up; setup_s is the
// median, so one slow allocation or page-fault storm does not move it.
const setupReps = 9

type workloadFunc func(cfg config) (*report, error)

var workloadTable = map[string]workloadFunc{
	"forkjoin": runForkjoin,
	"loops":    runLoops,
	"serve":    runServe,
	"analyze":  runAnalyze,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "forkjoin, loops, serve or analyze")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloadTable[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload forkjoin|loops|serve|analyze, --seconds >= 1, --trace 0|1\n")
		return 2
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	cfg := config{seed: *seed, measure: time.Duration(*seconds) * time.Second, trace: *trace == 1, procs: procs}

	rep, err := wl(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	rep.print(stdout, *name, cfg)
	out := struct {
		Correct   bool                     `json:"correct"`
		Attempted int64                    `json:"attempted"`
		Failed    int64                    `json:"failed"`
		Metrics   map[string]jsonMetricVal `json:"metrics"`
	}{rep.correct(), rep.attempted, rep.failed, rep.jsonMetrics(cfg.trace)}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}
