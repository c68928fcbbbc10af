package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"syscall"
	"time"

	"cilkgo/internal/obs"
	"cilkgo/internal/sched"
	"cilkgo/internal/workloads"
)

// serve sizes. The interactive tenant runs at a fixed rate; the
// best-effort tenant steps through svSteps, from light load to past the
// saturation of a one-worker runtime on these request sizes (about 160
// best-effort requests per second next to the interactive load, on a
// 2-vCPU x86 VM).
const (
	svInteractiveN    = 96  // interactive request: a 96x96 MatMul
	svBestEffortN     = 192 // best-effort request: a 192x192 MatMul
	svInputs          = 8   // seeded input pairs per class
	svInteractiveRate = 200.0
	svBudgetEvery     = 4 // every 4th request runs under a memory budget
	svMemBudget       = 64 << 20
	// svTailLimitMS is the interactive tail latency a step must meet to
	// count toward max_rate_rps.
	svTailLimitMS = 25.0
	// svLagLimitMS bounds the generator's p99 lateness; a run whose
	// generator fell further behind is invalid, since its latencies would
	// hide the stall.
	svLagLimitMS = 10.0
	svDrain      = 60 * time.Second
)

// svSteps are the best-effort rates in requests per second.
var svSteps = []float64{20, 80, 140, 200}

const (
	clsInteractive = iota
	clsBestEffort
)

var className = [2]string{"interactive", "best_effort"}

// request is one arrival of the open-loop schedule and what became of it.
type request struct {
	class, step, input int
	at                 time.Duration // due time after the schedule's start
	budget             bool

	submitted, done time.Time
	queue           time.Duration
	out             *workloads.Matrix // reply, allocated when the request runs
	refused, wrong  bool
	memPeak         int64
}

// serveInputs are the seeded matrices of each class, their serial
// products, and the arrival schedule.
type serveInputs struct {
	a, b, ref [2][]*workloads.Matrix
	reqs      []request
	stepLen   time.Duration
}

func newServeInputs(seed int64, measure time.Duration) *serveInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &serveInputs{stepLen: measure / time.Duration(len(svSteps))}
	for cls, n := range [2]int{svInteractiveN, svBestEffortN} {
		for i := 0; i < svInputs; i++ {
			a, b, ref := workloads.NewMatrix(n), workloads.NewMatrix(n), workloads.NewMatrix(n)
			for j := range a.Elts {
				a.Elts[j], b.Elts[j] = rng.Float64(), rng.Float64()
			}
			workloads.SerialMatMul(a, b, ref)
			in.a[cls] = append(in.a[cls], a)
			in.b[cls] = append(in.b[cls], b)
			in.ref[cls] = append(in.ref[cls], ref)
		}
	}
	// Poisson arrivals: exponential gaps at each class's rate.
	poisson := func(cls, step int, from, to time.Duration, rate float64) {
		t := from
		for {
			t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
			if t >= to {
				return
			}
			in.reqs = append(in.reqs, request{class: cls, step: step, at: t, input: rng.Intn(svInputs)})
		}
	}
	for s, rate := range svSteps {
		from := time.Duration(s) * in.stepLen
		poisson(clsInteractive, s, from, from+in.stepLen, svInteractiveRate)
		poisson(clsBestEffort, s, from, from+in.stepLen, rate)
	}
	slices.SortStableFunc(in.reqs, func(x, y request) int { return int(x.at - y.at) })
	for i := range in.reqs {
		in.reqs[i].budget = i%svBudgetEvery == 0
	}
	return in
}

// serveWorkers is the serve runtime's worker count: one core is left to the
// load generator and the goroutines that timestamp completions. They share
// the process, and workers that hold every P would delay them, which the
// latencies would then count as the runtime's.
func serveWorkers(procs int) int { return max(1, procs-1) }

// newServeRuntime configures the runtime as examples/serve does: observer,
// runtime tracing, admission with a best-effort tenant quota and memory
// watermarks. The limits are set above what the schedule reaches, so a
// refusal is a change in behaviour, not part of the load.
func newServeRuntime(procs int) *sched.Runtime {
	return sched.New(
		sched.WithWorkers(procs),
		sched.WithRunObserver(obs.NewRegistry(64)),
		sched.WithTracing(),
		sched.WithAdmission(sched.AdmissionConfig{
			MaxQueued:           1 << 16,
			Tenants:             map[string]sched.Quota{"free": {MaxQueued: 1 << 15}},
			SoftMemoryWatermark: 1 << 30,
			HardMemoryWatermark: 2 << 30,
		}),
	)
}

// serveState is a set-up serve workload.
type serveState struct {
	in *serveInputs
	rt *sched.Runtime
	// outs holds spare reply matrices. Requests run one or two at a time,
	// so a short free list makes replies allocation-free after warm-up: the
	// collector, which would take the generator's core, runs rarely, and
	// the live heap does not depend on how many replies a pool kept.
	outs [2]chan *workloads.Matrix
}

// reply returns a spare reply matrix of the class, or a new one.
func (st *serveState) reply(class, n int) *workloads.Matrix {
	select {
	case m := <-st.outs[class]:
		return m
	default:
		return workloads.NewMatrix(n)
	}
}

// recycle keeps m for a later reply unless the free list is full.
func (st *serveState) recycle(class int, m *workloads.Matrix) {
	select {
	case st.outs[class] <- m:
	default:
	}
}

// submit sends r to the runtime. The request takes its reply matrix when
// it starts to run, so queued requests hold no memory.
func (st *serveState) submit(r *request) (*sched.Ticket, error) {
	in := st.in
	a, b := in.a[r.class][r.input], in.b[r.class][r.input]
	opts := []sched.RunOption{sched.WithTenant("pro"), sched.WithQoS(sched.QoSInteractive)}
	if r.class == clsBestEffort {
		opts = []sched.RunOption{sched.WithTenant("free"), sched.WithQoS(sched.QoSBestEffort)}
	}
	if r.budget {
		opts = append(opts, sched.WithMemoryBudget(svMemBudget), sched.WithStats())
	}
	return st.rt.Submit(context.Background(), func(c *sched.Context) {
		out := st.reply(r.class, a.N)
		workloads.MatMul(c, a, b, out)
		r.out = out
	}, opts...)
}

// finish records a completed request and checks its reply.
func (st *serveState) finish(r *request, tk *sched.Ticket) {
	<-tk.Done()
	r.done = time.Now()
	r.queue = tk.QueueLatency()
	if r.budget {
		r.memPeak = tk.Stats().MemPeakBytes
	}
	r.wrong = tk.Err() != nil || r.out == nil || !slices.Equal(r.out.Elts, st.in.ref[r.class][r.input].Elts)
	if r.out != nil {
		st.recycle(r.class, r.out)
		r.out = nil
	}
}

func runServe(cfg config) (*report, error) {
	rep := newReport()
	st, setup, err := timedSetup(func() (*serveState, error) {
		st := &serveState{in: newServeInputs(cfg.seed, cfg.measure), rt: newServeRuntime(serveWorkers(cfg.procs))}
		for i := range st.outs {
			st.outs[i] = make(chan *workloads.Matrix, 4)
		}
		// Warm-up: a few requests of each class, one at a time.
		for i := 0; i < 2*svInputs; i++ {
			r := request{class: i % 2, input: i / 2 % svInputs}
			tk, err := st.submit(&r)
			if err != nil {
				return st, fmt.Errorf("warm-up submit: %w", err)
			}
			st.finish(&r, tk)
			if r.wrong {
				return st, fmt.Errorf("warm-up request gave a wrong reply")
			}
		}
		return st, nil
	}, func(st *serveState) { st.rt.Shutdown() })
	if err != nil {
		return nil, err
	}
	defer st.rt.Shutdown()
	rep.e2e["setup_s"] = setup
	rep.notef("open loop on %d worker(s): interactive %dx%d MatMul at %g req/s, best-effort %dx%d MatMul stepping through %v req/s, %v per step",
		st.rt.Workers(), svInteractiveN, svInteractiveN, svInteractiveRate, svBestEffortN, svBestEffortN, svSteps, st.in.stepLen)

	tr := newTracer(cfg.trace)
	res := driveOpenLoop(st, tr)
	reportServe(st, res, tr, rep)
	if tr != nil {
		if err := finishTrace(tr, "serve", cfg, rep); err != nil {
			return nil, err
		}
	}
	rep.finish()
	return rep, nil
}

// openLoopRun is what driveOpenLoop observed besides the requests.
type openLoopRun struct {
	start       time.Time
	lags        []float64 // ms, per request
	backlog     []int     // queued roots at each step boundary
	backlogMax  int
	scrapes     []float64 // ms per /metrics scrape
	scrapeBad   int
	heap        *heapSampler
	gc          gcCount
	stats       sched.Stats
	metrics0    map[string]int64
	metrics1    map[string]int64
	drainFailed bool
}

// driveOpenLoop sends every request at its due time, whether or not
// earlier ones have finished, and waits for all of them.
func driveOpenLoop(st *serveState, tr *tracer) *openLoopRun {
	rt, reqs := st.rt, st.in.reqs
	run := &openLoopRun{heap: newHeapSampler(), metrics0: rt.Metrics()}
	stats0, gc0 := rt.Stats(), readGC()

	// One /metrics scrape per second, as a monitoring system would.
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeWG.Add(1)
	go func() {
		defer scrapeWG.Done()
		h := obs.Handler(rt)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for {
			select {
			case <-stopScrape:
				return
			case <-tick.C:
				rec := httptest.NewRecorder()
				start := time.Now()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
				d := time.Since(start)
				run.scrapes = append(run.scrapes, float64(d.Nanoseconds())/1e6)
				if rec.Code != http.StatusOK {
					run.scrapeBad++
				}
			}
		}
	}()

	var wg sync.WaitGroup
	run.start = time.Now().Add(10 * time.Millisecond)
	nextStep, lastSample := 0, time.Time{}
	for i := range reqs {
		r := &reqs[i]
		due := run.start.Add(r.at)
		sleepUntil(due)
		for nextStep < len(svSteps) && time.Since(run.start) >= time.Duration(nextStep)*st.in.stepLen {
			run.backlog = append(run.backlog, rt.LoadReport().Queued)
			nextStep++
		}
		if now := time.Now(); now.Sub(lastSample) >= 10*time.Millisecond {
			lastSample = now
			run.backlogMax = max(run.backlogMax, rt.LoadReport().Queued)
			run.heap.sample()
		}
		var rtr *tracer
		if i%2 == 0 {
			rtr = tr
		}
		run.lags = append(run.lags, float64(time.Since(due).Nanoseconds())/1e6)
		id := rtr.begin("sched.submit."+className[r.class], 0, int64(i))
		tk, err := st.submit(r)
		r.submitted = time.Now()
		rtr.end(id)
		if err != nil {
			if errors.Is(err, sched.ErrAdmission) || errors.Is(err, sched.ErrQuota) {
				r.refused = true
			} else {
				r.wrong = true
			}
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.finish(r, tk)
			if rtr != nil {
				pickup := r.submitted.Add(r.queue)
				rtr.record("sched.queue."+className[r.class], 0, int64(i), r.submitted, pickup)
				rtr.record("sched.exec."+className[r.class], 0, int64(i), pickup, r.done)
			}
		}()
	}
	for nextStep <= len(svSteps) {
		if wait := time.Until(run.start.Add(time.Duration(nextStep) * st.in.stepLen)); wait > 0 {
			time.Sleep(wait)
		}
		run.backlog = append(run.backlog, rt.LoadReport().Queued)
		nextStep++
	}
	finished := make(chan struct{})
	go func() {
		wg.Wait()
		close(finished)
	}()
	select {
	case <-finished:
	case <-time.After(svDrain):
		run.drainFailed = true
		rt.ShutdownDrain(0)
		<-finished
	}
	close(stopScrape)
	scrapeWG.Wait()
	run.heap.sample()
	run.stats = rt.Stats().Sub(stats0)
	run.gc = readGC().sub(gc0)
	run.metrics1 = rt.Metrics()
	return run
}

// sleepUntil blocks the calling goroutine in a nanosleep system call until
// t. A Go timer would fire only when a scheduler P next runs its timers, and
// a P a worker holds runs them late; a goroutine blocked in a system call
// gives its P up and takes any idle one back when the call returns.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: loop and sleep the rest
	}
}

// latencyMS is a request's latency from its due time to Done; a refused
// or failed request is infinitely late, so it misses every limit.
func latencyMS(r *request, start time.Time) float64 {
	if r.refused || r.wrong || r.done.IsZero() {
		return math.Inf(1)
	}
	return float64(r.done.Sub(start.Add(r.at)).Nanoseconds()) / 1e6
}

func reportServe(st *serveState, run *openLoopRun, tr *tracer, rep *report) {
	reqs := st.in.reqs
	steps := len(svSteps)
	lat := make([][2][]float64, steps)
	good := make([]int, steps) // correct completions per step window
	var memPeak int64
	for i := range reqs {
		r := &reqs[i]
		rep.attempted++
		switch {
		case r.refused:
			rep.refused++
		case r.wrong:
			rep.wrong++
		}
		lat[r.step][r.class] = append(lat[r.step][r.class], latencyMS(r, run.start))
		if !r.refused && !r.wrong {
			if s := int(r.done.Sub(run.start) / st.in.stepLen); s >= 0 && s < steps {
				good[s]++
			}
		}
		memPeak = max(memPeak, r.memPeak)
	}
	stepSec := st.in.stepLen.Seconds()
	maxRate := 0.0
	for s := 0; s < steps; s++ {
		ip50 := median(lat[s][clsInteractive])
		ipct, itail, in := tail(lat[s][clsInteractive])
		bpct, btail, bn := tail(lat[s][clsBestEffort])
		growth := run.backlog[s+1] - run.backlog[s]
		ok := itail <= svTailLimitMS && growth <= max(10, bn/20)
		if ok {
			maxRate = svSteps[s]
		}
		rep.notef("step %d: best-effort %g req/s offered (%d sent), interactive %d sent: interactive p50 %.3f ms, p%d %.3f ms; "+
			"best-effort p50 %.3f ms, p%d %.3f ms; backlog %d -> %d; goodput %.1f req/s; meets limit %v",
			s, svSteps[s], bn, in, ip50, ipct, itail, median(lat[s][clsBestEffort]), bpct, btail,
			run.backlog[s], run.backlog[s+1], float64(good[s])/stepSec, ok)
	}
	light, heavy := lat[0][clsInteractive], lat[steps-1][clsInteractive]
	p50Light := median(light)
	lpct, tailLight, ln := tail(light)
	hpct, tailHeavy, hn := tail(heavy)
	bpct, beTail, bn := tail(lat[steps-1][clsBestEffort])
	goodput := float64(good[steps-1]) / stepSec

	rep.e2e["p50_ms"] = p50Light
	rep.e2e["tail_ms"] = tailHeavy

	rep.add("interactive_p50_ms", "ms", p50Light, fmt.Sprintf("lightest step, %d requests", len(light)))
	rep.add("interactive_p50_heavy_ms", "ms", median(heavy), fmt.Sprintf("heaviest step, %d requests", len(heavy)))
	rep.add("heap_peak_mb", "MB", run.heap.peakMB(), "peak live heap, sampled every 10 ms")
	rep.add("interactive_tail_ms", "ms", tailHeavy, "heaviest step, "+tailNote(hpct, hn))
	rep.add("besteffort_tail_ms", "ms", beTail, "heaviest step, "+tailNote(bpct, bn))
	rep.add("interactive_degrade", "x", tailHeavy/tailLight, fmt.Sprintf("heaviest over lightest step tail (lightest %.3f ms, %s)",
		tailLight, tailNote(lpct, ln)))
	rep.add("max_rate_rps", "req/s", maxRate, fmt.Sprintf("highest best-effort step with interactive tail <= %g ms and no backlog growth", svTailLimitMS))
	rep.add("goodput_rps", "req/s", goodput, "correct completions per second in the heaviest step")
	lagP50, lagP99 := median(run.lags), percentile(run.lags, 99)
	rep.add("bench.gen_lag_ms", "ms", lagP99, fmt.Sprintf("generator lateness p99 (p50 %.3f ms, max %.3f ms); limit %g ms",
		lagP50, slices.Max(run.lags), svLagLimitMS))
	if lagP99 > svLagLimitMS {
		rep.invalid = append(rep.invalid, fmt.Sprintf("generator p99 lateness %.3f ms exceeds %g ms", lagP99, svLagLimitMS))
	}
	if run.drainFailed {
		rep.invalid = append(rep.invalid, fmt.Sprintf("requests still outstanding %v after the last arrival", svDrain))
	}
	if run.scrapeBad > 0 {
		rep.wrong += int64(run.scrapeBad)
	}
	rep.attempted += int64(len(run.scrapes))

	if tr == nil {
		return
	}
	L := rep.layers
	n := float64(len(reqs))
	schedLayers(L, run.stats, n)
	L["sched.frame.max_live"] = float64(st.rt.Stats().MaxLiveFrames)
	for _, name := range className {
		for _, st := range [][2]string{{"submit", "call"}, {"queue", "queue"}, {"exec", "exec"}} {
			span, stage := st[0], st[1]
			ds := tr.durations("sched."+span+"."+name, "")
			for i := range ds {
				ds[i] *= 1e3 // ms -> us
			}
			metric := "sched.submit." + stage + "_us." + name
			_, t, _ := tail(ds)
			L[metric+".p50"] = median(ds)
			L[metric+".tail"] = t
		}
	}
	d := func(k string) float64 { return float64(run.metrics1[k] - run.metrics0[k]) }
	L["sched.submit.rejected_load"] = d("admission_rejected_load")
	L["sched.submit.rejected_quota"] = d("admission_rejected_quota")
	L["sched.submit.backlog_max"] = float64(run.backlogMax)
	L["sched.memory.peak_bytes"] = float64(memPeak)
	L["sched.memory.budget_cancels"] = d("mem_budget_cancels")
	L["sched.memory.pressure_rejected"] = d("mem_pressure_rejected")
	L["obs.scrape_ms"] = median(run.scrapes)
	L["go.gc_cycles"] = float64(run.gc.cycles)
	L["go.gc_pause_ms"] = run.gc.pauseMS
	L["bench.gen_lag_ms"] = lagP99
	// Tracing overhead: interactive latency of traced (even) requests over
	// untraced (odd) ones.
	var traced, untraced []float64
	for i := range reqs {
		if reqs[i].class != clsInteractive {
			continue
		}
		if i%2 == 0 {
			traced = append(traced, latencyMS(&reqs[i], run.start))
		} else {
			untraced = append(untraced, latencyMS(&reqs[i], run.start))
		}
	}
	if u := median(untraced); u > 0 && !math.IsInf(u, 0) {
		L["bench.trace_overhead_pct"] = (median(traced) - u) / u * 100
	}
}
