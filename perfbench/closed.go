package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"time"

	"cilkgo/internal/sched"
)

// variant is how a closed-loop pass runs its mix: as plain serial Go (T_S),
// on a one-worker runtime (T_1), or on a P-worker runtime (T_P).
type variant int

const (
	vSerial variant = iota
	vOne
	vPar
	numVariants
)

var variantNames = [numVariants]string{"serial", "1w", "pw"}

// mix is one closed-loop workload's pass. prepare and check run outside the
// timed region; run is the timed pass. rt is nil for the serial variant.
type mix interface {
	prepare(v variant)
	run(v variant, rt *sched.Runtime, tr *tracer, parent int32, op int64) error
	check(v variant) (attempted, wrong int64)
}

// closedRun is what measureClosed observed.
type closedRun struct {
	times       [numVariants][]float64 // ms per pass
	tracedPar   []float64              // pw passes recorded with spans (traced runs)
	untracedPar []float64              // pw passes recorded without spans (traced runs)
	heapPeakMB  float64
	// Stats deltas summed over the pw passes and over the 1w passes.
	parStats, oneStats sched.Stats
	oneAllocs          uint64
	gc                 gcCount
}

// measureClosed runs rounds of one pass per variant until cfg.measure has
// passed. The variants of a round run back to back in an order that rotates
// every round, so drift in machine speed falls on all three alike.
func measureClosed(cfg config, m mix, rts [numVariants]*sched.Runtime, tr *tracer, rep *report) *closedRun {
	cr := &closedRun{}
	heap := newHeapSampler()
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	gc0 := readGC()
	deadline := time.Now().Add(cfg.measure)
	var op int64
	for round := 0; time.Now().Before(deadline); round++ {
		// Traced runs record spans on even rounds only; the odd rounds give
		// the untraced pass time the tracing overhead is measured against.
		var rtr *tracer
		if round%2 == 0 {
			rtr = tr
		}
		for i := 0; i < int(numVariants); i++ {
			v := variant((i + round) % int(numVariants))
			op++
			m.prepare(v)
			var before sched.Stats
			if tr != nil && rts[v] != nil {
				before = rts[v].Stats()
				metrics.Read(allocs)
			}
			id := rtr.begin("pass."+variantNames[v], 0, op)
			start := time.Now()
			err := m.run(v, rts[v], rtr, id, op)
			d := time.Since(start)
			rtr.end(id)
			if tr != nil && rts[v] != nil {
				delta := rts[v].Stats().Sub(before)
				switch v {
				case vPar:
					cr.parStats = addStats(cr.parStats, delta)
				case vOne:
					cr.oneStats = addStats(cr.oneStats, delta)
					a := allocs[0].Value.Uint64()
					metrics.Read(allocs)
					cr.oneAllocs += allocs[0].Value.Uint64() - a
				}
			}
			att, wrong := m.check(v)
			if err != nil {
				wrong = att
				rep.notef("%s pass %d: %v", variantNames[v], op, err)
			}
			rep.attempted += att
			rep.wrong += wrong
			dms := float64(d.Nanoseconds()) / 1e6
			cr.times[v] = append(cr.times[v], dms)
			if v == vPar && tr != nil {
				if rtr != nil {
					cr.tracedPar = append(cr.tracedPar, dms)
				} else {
					cr.untracedPar = append(cr.untracedPar, dms)
				}
			}
			heap.sample()
		}
	}
	cr.heapPeakMB = heap.peakMB()
	cr.gc = readGC().sub(gc0)
	return cr
}

// heapSampler tracks the peak of the live Go heap: the bytes the last
// collection found reachable. Live bytes, unlike heap bytes including not
// yet collected garbage, do not depend on where in the collector's cycle a
// sample falls.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) sample() {
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

func (h *heapSampler) peakMB() float64 { return float64(h.peak) / (1 << 20) }

// gcCount is a reading of the collector's cycle count and total pause.
type gcCount struct {
	cycles  uint32
	pauseMS float64
}

func readGC() gcCount {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcCount{m.NumGC, float64(m.PauseTotalNs) / 1e6}
}

func (g gcCount) sub(prev gcCount) gcCount {
	return gcCount{g.cycles - prev.cycles, g.pauseMS - prev.pauseMS}
}

// addStats sums the counters of two Stats deltas.
func addStats(a, b sched.Stats) sched.Stats {
	a.Spawns += b.Spawns
	a.Steals += b.Steals
	a.StealAttempts += b.StealAttempts
	a.StealBatches += b.StealBatches
	a.TasksStolenBatched += b.TasksStolenBatched
	a.FailedSweeps += b.FailedSweeps
	a.TasksRun += b.TasksRun
	a.LoopSplits += b.LoopSplits
	a.ChunksPeeled += b.ChunksPeeled
	a.RangeSteals += b.RangeSteals
	a.LocalSteals += b.LocalSteals
	a.RemoteSteals += b.RemoteSteals
	a.PoolRefills += b.PoolRefills
	a.PoolSpills += b.PoolSpills
	return a
}

// reportClosed turns a closed-loop measurement into the workload's metrics.
func reportClosed(cr *closedRun, rts [numVariants]*sched.Runtime, rep *report) {
	ts, t1, tp := median(cr.times[vSerial]), median(cr.times[vOne]), median(cr.times[vPar])
	pct, tl, n := tail(cr.times[vPar])

	rep.e2e["p50_ms"] = tp
	rep.e2e["tail_ms"] = tl

	rep.add("pass_p50_ms", "ms", tp, fmt.Sprintf("T_P at P=%d, %d passes", rts[vPar].Workers(), len(cr.times[vPar])))
	rep.add("pass_tail_ms", "ms", tl, tailNote(pct, n))
	rep.add("speedup_p", "x", ts/tp, fmt.Sprintf("T_S %.4g ms / T_P %.4g ms", ts, tp))
	rep.add("overhead_1w", "x", t1/ts, fmt.Sprintf("T_1 %.4g ms / T_S %.4g ms (%d and %d passes)", t1, ts,
		len(cr.times[vOne]), len(cr.times[vSerial])))
	rep.add("heap_peak_mb", "MB", cr.heapPeakMB, "peak live heap, sampled after every pass")

	passes := float64(len(cr.times[vPar]))
	if cr.tracedPar == nil || passes == 0 {
		return
	}
	L := rep.layers
	schedLayers(L, cr.parStats, passes)
	L["sched.frame.max_live"] = float64(rts[vPar].Stats().MaxLiveFrames)
	// Chunk counts come from the one-worker passes: there no thief splits a
	// range off-grain, so the count is the loops' exact grain partition.
	// Under P workers each split can add a partial chunk, so that count
	// varies from pass to pass.
	L["sched.loop.chunks"] = float64(cr.oneStats.ChunksPeeled) / float64(len(cr.times[vOne]))
	if spawns := L["sched.spawn.count"]; spawns > 0 {
		L["sched.spawn.ns"] = (t1 - ts) * 1e6 / spawns
	}
	if cr.oneStats.Spawns > 0 {
		L["sched.spawn.allocs"] = float64(cr.oneAllocs) / float64(cr.oneStats.Spawns)
	}
	L["go.gc_cycles"] = float64(cr.gc.cycles)
	L["go.gc_pause_ms"] = cr.gc.pauseMS
	if u := median(cr.untracedPar); u > 0 {
		L["bench.trace_overhead_pct"] = (median(cr.tracedPar) - u) / u * 100
	}
}

// schedLayers fills the sched.* counts from a Stats delta over ops passes
// or requests.
func schedLayers(L map[string]float64, s sched.Stats, ops float64) {
	L["sched.spawn.count"] = float64(s.Spawns) / ops
	L["sched.frame.pool_refills"] = float64(s.PoolRefills) / ops
	L["sched.frame.pool_spills"] = float64(s.PoolSpills) / ops
	L["sched.steal.steals"] = float64(s.Steals) / ops
	L["sched.steal.failed_sweeps"] = float64(s.FailedSweeps) / ops
	if s.Steals > 0 {
		L["sched.steal.attempts_per_steal"] = float64(s.StealAttempts) / float64(s.Steals)
		L["sched.steal.batched_frac"] = float64(s.StealBatches) / float64(s.Steals)
		L["sched.steal.local_frac"] = float64(s.LocalSteals) / float64(s.Steals)
	}
	L["sched.loop.splits"] = float64(s.LoopSplits) / ops
	L["sched.loop.chunks"] = float64(s.ChunksPeeled) / ops
	L["sched.loop.range_steals"] = float64(s.RangeSteals) / ops
}

// timedSetup builds a workload's state setupReps times and returns the
// last build with the median build time in seconds. Earlier builds are torn
// down, and the heap collected, outside the timed region.
func timedSetup[T any](build func() (T, error), teardown func(T)) (T, float64, error) {
	var st T
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			teardown(st)
			var zero T
			st = zero
			runtime.GC()
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		st, err = build()
		if err != nil {
			return st, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	// Start measuring from a collected heap, so the live-heap samples do not
	// report whatever the last collection during set-up happened to mark.
	runtime.GC()
	return st, median(times), nil
}

// newRuntimes returns the 1-worker and P-worker runtimes of a closed-loop
// workload (the serial variant needs none).
func newRuntimes(procs int) [numVariants]*sched.Runtime {
	return [numVariants]*sched.Runtime{
		vOne: sched.New(sched.WithWorkers(1)),
		vPar: sched.New(sched.WithWorkers(procs)),
	}
}

func shutdownRuntimes(rts [numVariants]*sched.Runtime) {
	for _, rt := range rts {
		if rt != nil {
			rt.Shutdown()
		}
	}
}
