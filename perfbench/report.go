package main

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics BENCHMARK.json bounds. Each is defined on every
// workload (see README.md for what an "operation" is on each), so every run
// reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
}

// perLayer are the traced run's metrics. A layer a workload leaves idle
// reports 0 there. Counts are per pass at P (closed-loop workloads) or per
// request (serve), except the run totals named *_max, rejected_*,
// budget_cancels, pressure_rejected, peak_bytes and go.*.
var perLayer = []metricDef{
	{"sched.spawn.ns", "ns"},
	{"sched.spawn.count", "count"},
	{"sched.spawn.allocs", "count"},
	{"sched.frame.pool_refills", "count"},
	{"sched.frame.pool_spills", "count"},
	{"sched.frame.max_live", "count"},
	{"sched.steal.steals", "count"},
	{"sched.steal.attempts_per_steal", "ratio"},
	{"sched.steal.failed_sweeps", "count"},
	{"sched.steal.batched_frac", "ratio"},
	{"sched.steal.local_frac", "ratio"},
	{"deque.push_pop_ns", "ns"},
	{"deque.steal_ns", "ns"},
	{"deque.steal_batch_ns", "ns"},
	{"ladder.call_ns", "ns"},
	{"ladder.closure_ns", "ns"},
	{"ladder.spawn_serial_ns", "ns"},
	{"ladder.spawn_1w_ns", "ns"},
	{"ladder.spawn_pw_ns", "ns"},
	{"ladder.pingpong_ns", "ns"},
	{"ladder.submit_rt_us", "us"},
	{"sched.loop.splits", "count"},
	{"sched.loop.chunks", "count"},
	{"sched.loop.range_steals", "count"},
	{"pfor.ns_per_iter", "ns"},
	{"pfor.call_ms", "ms"},
	{"hyper.reduce_ms", "ms"},
	{"hyper.listappend_ms", "ms"},
	{"cilklock.walk_ms", "ms"},
	{"sched.submit.call_us.interactive.p50", "us"},
	{"sched.submit.call_us.interactive.tail", "us"},
	{"sched.submit.call_us.best_effort.p50", "us"},
	{"sched.submit.call_us.best_effort.tail", "us"},
	{"sched.submit.queue_us.interactive.p50", "us"},
	{"sched.submit.queue_us.interactive.tail", "us"},
	{"sched.submit.queue_us.best_effort.p50", "us"},
	{"sched.submit.queue_us.best_effort.tail", "us"},
	{"sched.submit.exec_us.interactive.p50", "us"},
	{"sched.submit.exec_us.interactive.tail", "us"},
	{"sched.submit.exec_us.best_effort.p50", "us"},
	{"sched.submit.exec_us.best_effort.tail", "us"},
	{"sched.submit.rejected_load", "count"},
	{"sched.submit.rejected_quota", "count"},
	{"sched.submit.backlog_max", "count"},
	{"sched.memory.peak_bytes", "bytes"},
	{"sched.memory.budget_cancels", "count"},
	{"sched.memory.pressure_rejected", "count"},
	{"obs.scrape_ms", "ms"},
	{"race.spbags.ns_per_access", "ns"},
	{"race.sporder.ns_per_access", "ns"},
	{"race.reports", "count"},
	{"cilkview.ms", "ms"},
	{"cilkmem.ms", "ms"},
	{"sim.ms", "ms"},
	{"sim.steals", "count"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"bench.gen_lag_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
}

// detail is one of a workload's own named metrics (pass_p50_ms, speedup_p,
// interactive_degrade, ...), printed for a reader but not bounded.
type detail struct {
	name, unit string
	value      float64
	note       string
}

// report is what a workload run hands back to main.
type report struct {
	attempted int64
	wrong     int64 // operations that errored or returned a wrong result
	refused   int64 // operations the runtime refused (counted as failed)
	failed    int64 // wrong + refused, set by finish
	invalid   []string

	e2e     map[string]float64
	details []detail
	layers  map[string]float64
	notes   []string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

func (r *report) add(name, unit string, v float64, note string) {
	r.details = append(r.details, detail{name, unit, v, note})
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// finish fixes the fail count and adds fail_frac to the details.
func (r *report) finish() {
	r.failed = r.wrong + r.refused
	frac := 0.0
	if r.attempted > 0 {
		frac = float64(r.failed) / float64(r.attempted)
	}
	r.add("fail_frac", "ratio", frac, fmt.Sprintf("%d of %d operations failed (%d wrong or errored, %d refused)",
		r.failed, r.attempted, r.wrong, r.refused))
}

// correct is false when an output check failed or the run was invalid.
// Refused operations are counted as failed but are not incorrect outputs.
func (r *report) correct() bool { return r.wrong == 0 && len(r.invalid) == 0 && r.attempted > 0 }

type jsonMetricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) jsonMetrics(traced bool) map[string]jsonMetricVal {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer, r.layers
	}
	out := make(map[string]jsonMetricVal, len(defs))
	for _, d := range defs {
		v := vals[d.name]
		// JSON has no infinity. An infinite latency (a tail made of refused
		// requests) is reported as the largest float, so it still reads as
		// the worst possible value.
		if math.IsInf(v, 1) {
			v = math.MaxFloat64
		}
		out[d.name] = jsonMetricVal{v, d.unit}
	}
	return out
}

// print writes the human-readable result: every metric by name and unit.
func (r *report) print(w io.Writer, workload string, cfg config) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d seconds=%.0f trace=%v P=%d\n",
		workload, cfg.seed, cfg.measure.Seconds(), cfg.trace, cfg.procs)
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, d := range r.details {
		fmt.Fprintf(w, "  %-28s %14.6g %-6s %s\n", d.name, d.value, d.unit, d.note)
	}
	fmt.Fprintln(w, "  end-to-end (bounded in BENCHMARK.json):")
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, r.e2e[d.name], d.unit)
	}
	if cfg.trace {
		fmt.Fprintln(w, "  per-layer:")
		for _, d := range perLayer {
			fmt.Fprintf(w, "  %-40s %14.6g %s\n", d.name, r.layers[d.name], d.unit)
		}
	}
	for _, s := range r.invalid {
		fmt.Fprintf(w, "  INVALID: %s\n", s)
	}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailPercentiles are the percentiles a tail may be reported at, highest
// first. A fixed ladder keeps the reported percentile the same across runs
// whose sample counts differ a little.
var tailPercentiles = []int{99, 90, 75, 50}

// tail returns the highest ladder percentile with at least ten samples
// beyond it (nearest rank), its value, and the sample count.
func tail(xs []float64) (pct int, v float64, n int) {
	n = len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(xs)
	for _, p := range tailPercentiles {
		if rank := nearestRank(n, float64(p)); n-rank >= 10 || p == 50 {
			return p, s[rank-1], n
		}
	}
	panic("unreachable: the ladder ends at p50")
}

// nearestRank is the 1-based rank of the p-th percentile of n samples.
func nearestRank(n int, p float64) int {
	return max(int(math.Ceil(p/100*float64(n))), 1)
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[nearestRank(len(xs), p)-1]
}

// tailNote describes a tail: "p90 of 180 samples".
func tailNote(pct, n int) string { return fmt.Sprintf("p%d of %d samples", pct, n) }

func ms(ns int64) float64 { return float64(ns) / 1e6 }
