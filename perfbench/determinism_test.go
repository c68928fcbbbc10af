package main

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"cilkgo/internal/sched"
	"cilkgo/internal/workloads"
)

// These tests assert on inputs and exact counts only, never on time.

const testStreamLen = 1 << 16

// inputDigest reduces every workload's generated inputs for seed to
// comparable values.
func inputDigest(seed int64) map[string]any {
	fj := newForkjoinInputs(seed, 4096)
	lp := newLoopsInputs(seed, testStreamLen)
	var walk []int64
	for _, n := range lp.walkRef {
		walk = append(walk, n.Value)
	}
	sv := newServeInputs(seed, 12*time.Second)
	var arrivals []time.Duration
	var classes []int
	for _, r := range sv.reqs {
		arrivals = append(arrivals, r.at)
		classes = append(classes, r.class*100+r.input)
	}
	an := newAnalyzeInputs(seed)
	var progs []string
	for _, p := range an.randfj {
		progs = append(progs, p.Name)
	}
	return map[string]any{
		"forkjoin.sort":     fj.sortSrc,
		"loops.a":           lp.a.Elts,
		"loops.y":           lp.y,
		"loops.scale":       lp.scale,
		"loops.samples":     lp.samples,
		"loops.vals":        lp.vals,
		"loops.walk":        walk,
		"serve.a":           sv.a[clsBestEffort][0].Elts,
		"serve.arrivals":    arrivals,
		"serve.classes":     classes,
		"analyze.race":      an.race.data,
		"analyze.wantRaces": an.race.wantRaces,
		"analyze.vqsort":    an.metrics[an.vqsort.Name],
		"analyze.randfj":    progs,
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := inputDigest(7), inputDigest(7)
	for k := range a {
		if !reflect.DeepEqual(a[k], b[k]) {
			t.Errorf("%s differs between two generations from seed 7", k)
		}
	}
}

func TestDifferentSeedDifferentInputs(t *testing.T) {
	a, b := inputDigest(7), inputDigest(8)
	for k := range a {
		if k == "analyze.wantRaces" {
			continue // a small count; two seeds may agree on it
		}
		if reflect.DeepEqual(a[k], b[k]) {
			t.Errorf("%s is the same for seeds 7 and 8", k)
		}
	}
}

// passDelta runs one checked pass of m on a fresh runtime with the given
// number of workers and returns the runtime's Stats delta.
func passDelta(t *testing.T, m mix, workers int) sched.Stats {
	t.Helper()
	v := vPar
	if workers == 1 {
		v = vOne
	}
	rt := sched.New(sched.WithWorkers(workers))
	defer rt.Shutdown()
	before := rt.Stats()
	m.prepare(v)
	if err := m.run(v, rt, nil, 0, 0); err != nil {
		t.Fatalf("pass: %v", err)
	}
	delta := rt.Stats().Sub(before)
	if _, wrong := m.check(v); wrong != 0 {
		t.Fatalf("pass produced %d wrong outputs", wrong)
	}
	return delta
}

func TestForkjoinSpawnCountRepeats(t *testing.T) {
	var counts []int64
	for i := 0; i < 3; i++ {
		in := newForkjoinInputs(3, 4096)
		m := &forkjoinMix{in: in, buf: make([]float64, len(in.sortSrc))}
		counts = append(counts, passDelta(t, m, 2).Spawns)
	}
	if counts[0] == 0 || counts[1] != counts[0] || counts[2] != counts[0] {
		t.Fatalf("sched.spawn.count per pass = %v, want one nonzero value", counts)
	}
	// Fib alone: one spawn per call with n >= 2.
	rt := sched.New(sched.WithWorkers(2))
	defer rt.Shutdown()
	before := rt.Stats()
	var got int64
	if err := rt.Run(func(c *sched.Context) { got = workloads.Fib(c, fjFib) }); err != nil {
		t.Fatal(err)
	}
	if got != fjFibWant {
		t.Fatalf("Fib(%d) = %d, want %d", fjFib, got, fjFibWant)
	}
	if spawns, want := rt.Stats().Sub(before).Spawns, fibSpawns(fjFib); spawns != want {
		t.Fatalf("Fib(%d) spawned %d times, want %d", fjFib, spawns, want)
	}
}

func fibSpawns(n int) int64 {
	if n < 2 {
		return 0
	}
	return 1 + fibSpawns(n-1) + fibSpawns(n-2)
}

// sched.loop.chunks is taken from one-worker passes; see reportClosed.
func TestLoopsChunkCountRepeats(t *testing.T) {
	var chunks []int64
	for i := 0; i < 3; i++ {
		m := newLoopsMix(newLoopsInputs(3, testStreamLen))
		chunks = append(chunks, passDelta(t, m, 1).ChunksPeeled)
	}
	if chunks[0] == 0 || chunks[1] != chunks[0] || chunks[2] != chunks[0] {
		t.Fatalf("sched.loop.chunks per pass = %v, want one nonzero value", chunks)
	}
}

func TestAnalyzeCountsRepeat(t *testing.T) {
	var got []analyzeCounts
	for i := 0; i < 2; i++ {
		in := newAnalyzeInputs(5)
		var cnt analyzeCounts
		attempted, wrong, err := analyzePass(in, nil, 0, 0, &cnt)
		if err != nil || wrong != 0 || attempted == 0 {
			t.Fatalf("pass: attempted %d, wrong %d, err %v", attempted, wrong, err)
		}
		if cnt.reports != in.race.wantRaces || cnt.reports == 0 {
			t.Fatalf("race.reports = %d, want the %d planted races", cnt.reports, in.race.wantRaces)
		}
		got = append(got, cnt)
	}
	if got[0] != got[1] || got[0].steals == 0 {
		t.Fatalf("exact counts differ or are empty: %+v vs %+v", got[0], got[1])
	}
}

func TestTailPicksPercentileWithTenBeyond(t *testing.T) {
	xs := make([]float64, 150)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if pct, v, n := tail(xs); pct != 90 || v != 135 || n != 150 {
		t.Fatalf("tail = p%d %v of %d, want p90 135 of 150", pct, v, n)
	}
	if pct, _, _ := tail(xs[:30]); pct != 50 {
		t.Fatalf("tail of 30 samples = p%d, want p50", pct)
	}
}

func TestCoveredCountsOverlapOnce(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {25, 26}}
	if got := covered(slices.Clone(iv), 0, 100); got != 25 {
		t.Fatalf("covered = %d, want 25", got)
	}
	if got := covered(slices.Clone(iv), 8, 22); got != 9 {
		t.Fatalf("covered in [8,22) = %d, want 9", got)
	}
}
