package main

import (
	"fmt"
	"math"
	"sort"

	"cilkgo/internal/sched"
	"cilkgo/internal/workloads"
)

// forkjoin sizes. The seed picks the quicksort input; the sizes stay fixed
// so that every seed does the same amount of work.
const (
	fjFib       = 20
	fjFibWant   = 6765
	fjQueens    = 9
	fjQueenWant = 352
	fjSortN     = 100_000
	fjSortGrain = 32
)

// forkjoinInputs are the generated inputs of one forkjoin pass.
type forkjoinInputs struct {
	sortSrc []float64
	sortSum uint64 // order-independent checksum of sortSrc
}

func newForkjoinInputs(seed int64, n int) forkjoinInputs {
	src := workloads.RandomFloats(n, seed)
	return forkjoinInputs{sortSrc: src, sortSum: multisetSum(src)}
}

// multisetSum is an order-independent checksum of a float multiset.
func multisetSum(xs []float64) uint64 {
	var s uint64
	for _, x := range xs {
		s += splitmix(math.Float64bits(x))
	}
	return s
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// forkjoinMix is a pass of spawn-dense recursion: Fib, Qsort and NQueens.
type forkjoinMix struct {
	in     forkjoinInputs
	buf    []float64
	fib    int64
	queens int64
}

func (m *forkjoinMix) prepare(variant) { copy(m.buf, m.in.sortSrc) }

func (m *forkjoinMix) run(v variant, rt *sched.Runtime, tr *tracer, parent int32, op int64) error {
	if v == vSerial {
		id := tr.begin("fib", parent, op)
		m.fib = workloads.SerialFib(fjFib)
		tr.end(id)
		id = tr.begin("qsort", parent, op)
		workloads.SerialQsort(m.buf, fjSortGrain)
		tr.end(id)
		id = tr.begin("nqueens", parent, op)
		m.queens = serialQueens(fjQueens)
		tr.end(id)
		return nil
	}
	// Each program is its own root, as a caller would submit it, so the
	// spans sit around the calls into the scheduler.
	id := tr.begin("sched.run.fib", parent, op)
	err := rt.Run(func(c *sched.Context) { m.fib = workloads.Fib(c, fjFib) })
	tr.end(id)
	if err != nil {
		return fmt.Errorf("fib: %w", err)
	}
	id = tr.begin("sched.run.qsort", parent, op)
	err = rt.Run(func(c *sched.Context) { workloads.Qsort(c, m.buf, fjSortGrain) })
	tr.end(id)
	if err != nil {
		return fmt.Errorf("qsort: %w", err)
	}
	id = tr.begin("sched.run.nqueens", parent, op)
	err = rt.Run(func(c *sched.Context) { m.queens = workloads.NQueens(c, fjQueens) })
	tr.end(id)
	if err != nil {
		return fmt.Errorf("nqueens: %w", err)
	}
	return nil
}

// check verifies the three outputs of the pass just run.
func (m *forkjoinMix) check(variant) (attempted, wrong int64) {
	attempted = 3
	if m.fib != fjFibWant {
		wrong++
	}
	if m.queens != fjQueenWant {
		wrong++
	}
	if !sort.Float64sAreSorted(m.buf) || multisetSum(m.buf) != m.in.sortSum {
		wrong++
	}
	m.fib, m.queens = 0, 0
	return attempted, wrong
}

// serialQueens is NQueens' serial elision: the same bitmask recursion with
// a plain counter in place of the reducer.
func serialQueens(n int) int64 {
	var place func(row int, cols, d1, d2 uint64) int64
	place = func(row int, cols, d1, d2 uint64) int64 {
		if row == n {
			return 1
		}
		var count int64
		for col := 0; col < n; col++ {
			cb := uint64(1) << col
			db1 := uint64(1) << (row + col)
			db2 := uint64(1) << (row - col + n - 1)
			if cols&cb != 0 || d1&db1 != 0 || d2&db2 != 0 {
				continue
			}
			count += place(row+1, cols|cb, d1|db1, d2|db2)
		}
		return count
	}
	return place(0, 0, 0, 0)
}

type forkjoinState struct {
	mix *forkjoinMix
	rts [numVariants]*sched.Runtime
}

func runForkjoin(cfg config) (*report, error) {
	rep := newReport()
	st, setup, err := timedSetup(func() (*forkjoinState, error) {
		in := newForkjoinInputs(cfg.seed, fjSortN)
		st := &forkjoinState{
			mix: &forkjoinMix{in: in, buf: make([]float64, len(in.sortSrc))},
			rts: newRuntimes(cfg.procs),
		}
		return st, warmUp(st.mix, st.rts)
	}, func(st *forkjoinState) { shutdownRuntimes(st.rts) })
	if err != nil {
		return nil, err
	}
	defer shutdownRuntimes(st.rts)
	rep.e2e["setup_s"] = setup
	rep.notef("mix: fib(%d), qsort of %d seeded floats (grain %d), nqueens(%d)", fjFib, fjSortN, fjSortGrain, fjQueens)

	tr := newTracer(cfg.trace)
	cr := measureClosed(cfg, st.mix, st.rts, tr, rep)
	reportClosed(cr, st.rts, rep)
	if tr != nil {
		if err := finishTrace(tr, "forkjoin", cfg, rep); err != nil {
			return nil, err
		}
	}
	rep.finish()
	return rep, nil
}

// warmUp runs every variant of a mix twice, untimed, so caches, frame
// pools and lazily built state are warm before measuring.
func warmUp(m mix, rts [numVariants]*sched.Runtime) error {
	for i := 0; i < 2; i++ {
		for v := vSerial; v < numVariants; v++ {
			m.prepare(v)
			if err := m.run(v, rts[v], nil, 0, 0); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
			if _, wrong := m.check(v); wrong != 0 {
				return fmt.Errorf("warm-up %s pass produced %d wrong outputs", variantNames[v], wrong)
			}
		}
	}
	return nil
}
