package main

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"cilkgo/internal/cilkmem"
	"cilkgo/internal/cilkview"
	"cilkgo/internal/race"
	"cilkgo/internal/sched"
	"cilkgo/internal/sim"
	"cilkgo/internal/vprog"
)

// analyze sizes. The seed picks the checked program's data and the virtual
// programs; the sizes stay fixed.
const (
	anRaceN      = 1500 // elements sorted by the race-checked program
	anRaceBlocks = 12   // parallel histogram blocks
	anRaceBins   = 40   // histogram bins over the sorted values
	anVQsortN    = 100_000
	anVQsortG    = 64
	anFJDepth    = 12
	anFJProgs    = 8 // random fork-join programs simulated per pass
	anMemProcs   = 4
	anFrameBytes = 256
	anMissCost   = 5
	anCacheLines = 4
)

var anSimProcs = []int{1, 2, 4, 8}

// raceProgram is a real program instrumented for the race detector: a
// correct parallel quicksort (Fig. 1) followed by a parallel histogram whose
// blocks update shared bins without a lock. The planted races are the bins
// that more than one block touches; the sort itself is race-free.
type raceProgram struct {
	data      []int
	wantRaces int   // bins touched by two or more blocks
	accesses  int64 // instrumented accesses per run
}

func newRaceProgram(rng *rand.Rand) *raceProgram {
	p := &raceProgram{data: make([]int, anRaceN)}
	for i := range p.data {
		p.data[i] = rng.Intn(anRaceBins * 100)
	}
	sorted := slices.Clone(p.data)
	slices.Sort(sorted)
	owner := map[int]int{} // bin -> first block that writes it
	racy := map[int]bool{}
	for b := 0; b < anRaceBlocks; b++ {
		lo, hi := raceBlock(b)
		for _, v := range sorted[lo:hi] {
			if first, ok := owner[v/100]; !ok {
				owner[v/100] = b
			} else if first != b {
				racy[v/100] = true
			}
		}
	}
	p.wantRaces = len(racy)
	return p
}

// raceBlock returns the element range of histogram block b.
func raceBlock(b int) (lo, hi int) {
	return b * anRaceN / anRaceBlocks, (b + 1) * anRaceN / anRaceBlocks
}

// run executes the instrumented program under detector d.
func (p *raceProgram) run(c *sched.Context, d *race.Detector) {
	data := slices.Clone(p.data)
	var accesses int64
	var qsort func(c *sched.Context, lo, hi int)
	qsort = func(c *sched.Context, lo, hi int) {
		if hi-lo < 2 {
			return
		}
		pivot := data[lo]
		mid := lo
		for i := lo; i < hi; i++ {
			d.Read(race.Index("a", i), "partition read")
			if data[i] < pivot {
				data[i], data[mid] = data[mid], data[i]
				d.Write(race.Index("a", i), "partition write")
				d.Write(race.Index("a", mid), "partition write")
				accesses += 2
				mid++
			}
			accesses++
		}
		right := max(lo+1, mid)
		c.Spawn(func(c *sched.Context) { qsort(c, lo, mid) })
		qsort(c, right, hi)
		c.Sync()
	}
	qsort(c, 0, len(data))
	c.Sync()
	// The histogram: each block reads its slice of the sorted array and
	// writes the bins it hits, unprotected.
	for b := 0; b < anRaceBlocks; b++ {
		lo, hi := raceBlock(b)
		c.Spawn(func(*sched.Context) {
			for i := lo; i < hi; i++ {
				d.Read(race.Index("a", i), "histogram read")
				d.Write(race.Index("bin", data[i]/100), "histogram increment")
			}
		})
		accesses += int64(2 * (hi - lo))
	}
	c.Sync()
	p.accesses = accesses
}

// analyzeInputs are the analyze workload's programs and their references.
type analyzeInputs struct {
	race    *raceProgram
	vqsort  vprog.Program
	randfj  []vprog.Program
	metrics map[string]vprog.Metrics // dag-model reference per program name
	seed    int64
}

func newAnalyzeInputs(seed int64) *analyzeInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &analyzeInputs{
		race:   newRaceProgram(rng),
		vqsort: vprog.Qsort(anVQsortN, rng.Uint64(), anVQsortG),
		seed:   seed,
	}
	in.metrics = map[string]vprog.Metrics{in.vqsort.Name: vprog.Analyze(in.vqsort)}
	for i := 0; i < anFJProgs; i++ {
		p := vprog.RandomFJ(rng.Uint64(), anFJDepth)
		in.randfj = append(in.randfj, p)
		in.metrics[p.Name] = vprog.Analyze(p)
	}
	return in
}

// analyzeCounts are one pass's exact counts.
type analyzeCounts struct {
	reports  int
	accesses int64
	steals   int64
}

// analyzePass runs every tool once and checks its output. It returns the
// number of checked outputs and how many were wrong.
func analyzePass(in *analyzeInputs, tr *tracer, parent int32, op int64, cnt *analyzeCounts) (attempted, wrong int64, err error) {
	check := func(ok bool) {
		attempted++
		if !ok {
			wrong++
		}
	}
	id := tr.begin("race.spbags", parent, op)
	bags, err := race.Check(in.race.run)
	tr.end(id)
	if err != nil {
		return attempted, wrong, fmt.Errorf("race.Check: %w", err)
	}
	id = tr.begin("race.sporder", parent, op)
	order, err := race.CheckSPOrder(in.race.run)
	tr.end(id)
	if err != nil {
		return attempted, wrong, fmt.Errorf("race.CheckSPOrder: %w", err)
	}
	check(len(bags) == in.race.wantRaces && allPlanted(bags))
	check(sameReports(bags, order))
	cnt.reports, cnt.accesses = len(bags), in.race.accesses

	id = tr.begin("cilkview", parent, op)
	prof := cilkview.FromProgram(in.vqsort, 50)
	tr.end(id)
	ref := in.metrics[in.vqsort.Name]
	check(prof.Work == ref.Work && prof.Span == ref.Span && prof.BurdenedSpan >= prof.Span)

	id = tr.begin("cilkmem", parent, op)
	mem := cilkmem.AnalyzeProgram(in.vqsort, anMemProcs, anFrameBytes)
	tr.end(id)
	check(mem.SerialHWM > 0 && mem.SerialHWM <= mem.Exact && mem.Exact <= mem.Approx &&
		mem.Approx <= int64(anMemProcs+1)*mem.Exact)

	id = tr.begin("sim", parent, op)
	cnt.steals = 0
	for _, prog := range append([]vprog.Program{in.vqsort}, in.randfj...) {
		work := in.metrics[prog.Name].Work
		for _, p := range anSimProcs {
			res, err := sim.Run(prog, sim.Config{Procs: p, StealCost: 1, Seed: in.seed + int64(p),
				CacheLines: anCacheLines, MissCost: anMissCost, Domains: min(p, 2)})
			if err != nil {
				tr.end(id)
				return attempted, wrong, fmt.Errorf("sim.Run P=%d: %w", p, err)
			}
			var busy int64
			for _, b := range res.ProcBusy {
				busy += b
			}
			check(res.Work == work && busy == work+anMissCost*res.CacheMisses)
			cnt.steals += res.Steals
		}
	}
	tr.end(id)
	return attempted, wrong, nil
}

// allPlanted reports whether every race is a write-write race on a
// histogram bin: the sort must not be reported.
func allPlanted(rs []race.Report) bool {
	for _, r := range rs {
		if r.Kind != race.WriteWrite || r.First != "histogram increment" {
			return false
		}
	}
	return true
}

// sameReports reports whether two detectors found the same race set.
func sameReports(a, b []race.Report) bool {
	as, bs := reportStrings(a), reportStrings(b)
	return slices.Equal(as, bs)
}

func reportStrings(rs []race.Report) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.String()
	}
	slices.Sort(out)
	return out
}

func runAnalyze(cfg config) (*report, error) {
	rep := newReport()
	in, setup, err := timedSetup(func() (*analyzeInputs, error) {
		in := newAnalyzeInputs(cfg.seed)
		for i := 0; i < 2; i++ {
			var cnt analyzeCounts
			_, wrong, err := analyzePass(in, nil, 0, 0, &cnt)
			if err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
			if wrong != 0 {
				return nil, fmt.Errorf("warm-up pass produced %d wrong outputs", wrong)
			}
		}
		return in, nil
	}, func(*analyzeInputs) {})
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setup
	rep.notef("mix: race.Check + CheckSPOrder on a %d-element instrumented qsort + %d-block histogram (%d planted races), "+
		"cilkview and cilkmem (P=%d) on %s, sim at P=%v on it and %d random fork-join programs", anRaceN, anRaceBlocks,
		in.race.wantRaces, anMemProcs, in.vqsort.Name, anSimProcs, anFJProgs)

	tr := newTracer(cfg.trace)
	heap := newHeapSampler()
	var times, tracedTimes, untracedTimes []float64
	var cnt analyzeCounts
	gc0 := readGC()
	deadline := time.Now().Add(cfg.measure)
	for op := int64(1); time.Now().Before(deadline); op++ {
		var ptr *tracer
		if op%2 == 0 {
			ptr = tr
		}
		id := ptr.begin("pass", 0, op)
		start := time.Now()
		att, wrong, err := analyzePass(in, ptr, id, op, &cnt)
		d := float64(time.Since(start).Nanoseconds()) / 1e6
		ptr.end(id)
		if err != nil {
			rep.notef("pass %d: %v", op, err)
			wrong = max(att, 1)
		}
		rep.attempted += max(att, 1)
		rep.wrong += wrong
		times = append(times, d)
		if tr != nil {
			if ptr != nil {
				tracedTimes = append(tracedTimes, d)
			} else {
				untracedTimes = append(untracedTimes, d)
			}
		}
		heap.sample()
	}
	gc := readGC().sub(gc0)

	p50 := median(times)
	pct, tl, n := tail(times)
	rep.e2e["p50_ms"] = p50
	rep.e2e["tail_ms"] = tl
	rep.add("pass_p50_ms", "ms", p50, fmt.Sprintf("%d passes (serial tools)", len(times)))
	rep.add("pass_tail_ms", "ms", tl, tailNote(pct, n))
	rep.add("heap_peak_mb", "MB", heap.peakMB(), "peak live heap, sampled after every pass")

	if tr != nil {
		L := rep.layers
		L["race.spbags.ns_per_access"] = median(tr.durations("race.spbags", "pass")) * 1e6 / float64(cnt.accesses)
		L["race.sporder.ns_per_access"] = median(tr.durations("race.sporder", "pass")) * 1e6 / float64(cnt.accesses)
		L["race.reports"] = float64(cnt.reports)
		L["cilkview.ms"] = median(tr.durations("cilkview", "pass"))
		L["cilkmem.ms"] = median(tr.durations("cilkmem", "pass"))
		L["sim.ms"] = median(tr.durations("sim", "pass"))
		L["sim.steals"] = float64(cnt.steals)
		L["go.gc_cycles"] = float64(gc.cycles)
		L["go.gc_pause_ms"] = gc.pauseMS
		if u := median(untracedTimes); u > 0 {
			L["bench.trace_overhead_pct"] = (median(tracedTimes) - u) / u * 100
		}
		if err := finishTrace(tr, "analyze", cfg, rep); err != nil {
			return nil, err
		}
	}
	rep.finish()
	return rep, nil
}
