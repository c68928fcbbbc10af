package main

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"cilkgo/internal/cilklock"
	"cilkgo/internal/hyper"
	"cilkgo/internal/pfor"
	"cilkgo/internal/sched"
	"cilkgo/internal/workloads"
)

// loops sizes. The seed picks matrix, array and tree contents; the sizes
// stay fixed (the stream arrays scale with the host's last-level cache).
const (
	lpMatN       = 160
	lpReduceN    = 1 << 18
	lpTreeN      = 3000
	lpTreeMod    = 7
	lpTreeWork   = 64
	lpStreamWins = 8 // a pass streams one window; see newLoopsInputs
	lpSamples    = 64
	// lpCacheMult is how many times the last-level cache the three stream
	// arrays span together.
	lpCacheMult = 4
	// lpDefaultLLC is assumed when sysfs reports no cache sizes.
	lpDefaultLLC = 32 << 20
)

// loopsInputs are the generated inputs of the loops workload.
type loopsInputs struct {
	a, b, ref *workloads.Matrix // ref = a×b, computed serially at set-up
	x, y, z   []float64         // stream arrays
	scale     []float64         // per-pass daxpy scalars
	samples   []int             // window offsets checked after each stream pass
	vals      []int64           // summed by the reduce kernel
	valsSum   int64
	tree      *workloads.TreeNode
	walkRef   []*workloads.TreeNode // serial walk output, in order
}

// newLoopsInputs builds the loops inputs; streamLen is the length of each
// of the three stream arrays.
func newLoopsInputs(seed int64, streamLen int) *loopsInputs {
	rng := rand.New(rand.NewSource(seed))
	in := &loopsInputs{a: workloads.NewMatrix(lpMatN), b: workloads.NewMatrix(lpMatN), ref: workloads.NewMatrix(lpMatN)}
	for i := range in.a.Elts {
		in.a.Elts[i] = rng.Float64()
		in.b.Elts[i] = rng.Float64()
	}
	workloads.SerialMatMul(in.a, in.b, in.ref)

	in.x, in.y, in.z = make([]float64, streamLen), make([]float64, streamLen), make([]float64, streamLen)
	for i := range in.y {
		in.y[i] = rng.Float64()
	}
	for i := 0; i < 16; i++ {
		in.scale = append(in.scale, 0.5+rng.Float64())
	}
	win := streamLen / lpStreamWins
	for i := 0; i < lpSamples; i++ {
		in.samples = append(in.samples, rng.Intn(win))
	}

	in.vals = make([]int64, lpReduceN)
	for i := range in.vals {
		in.vals[i] = rng.Int63n(1 << 20)
		in.valsSum += in.vals[i]
	}
	in.tree = workloads.BuildTree(lpTreeN, rng.Int63())
	workloads.WalkSerial(in.tree, lpTreeMod, lpTreeWork, &in.walkRef)
	return in
}

// loopsMix is one pass of cilk_for and reducer kernels: MatMul, a
// sin-fill/daxpy stream, a pfor.Reduce sum and the §5 tree walk with a
// list-append reducer and with a mutex.
type loopsMix struct {
	in     *loopsInputs
	out    *workloads.Matrix
	stream int // stream passes run so far; picks window and scalar
	lo, hi int // window of the last stream pass
	alpha  float64
	sum    int64
	list   []*workloads.TreeNode
	locked []*workloads.TreeNode
	mu     *cilklock.Mutex
	add    hyper.Monoid[int64]
}

func newLoopsMix(in *loopsInputs) *loopsMix {
	return &loopsMix{
		in:  in,
		out: workloads.NewMatrix(lpMatN),
		mu:  cilklock.New("treewalk"),
		add: hyper.FuncMonoid(func() int64 { return 0 }, func(l, r int64) int64 { return l + r }),
	}
}

func (m *loopsMix) prepare(variant) {
	clear(m.out.Elts)
	m.sum, m.list, m.locked = 0, m.list[:0], m.locked[:0]
	// Consecutive stream passes use different windows, so a window was last
	// touched lpStreamWins-1 passes (and several cache sizes of traffic) ago.
	win := len(m.in.x) / lpStreamWins
	w := m.stream % lpStreamWins
	m.lo, m.hi = w*win, (w+1)*win
	m.alpha = m.in.scale[m.stream%len(m.in.scale)]
	m.stream++
}

// fillPoly is the value workloads.FillSin stores at slice index i.
func fillPoly(i int) float64 {
	x := float64(i) * 1e-3
	return x - x*x*x/6 + x*x*x*x*x/120
}

func (m *loopsMix) run(v variant, rt *sched.Runtime, tr *tracer, parent int32, op int64) error {
	in := m.in
	x, y, z := in.x[m.lo:m.hi], in.y[m.lo:m.hi], in.z[m.lo:m.hi]
	alpha := m.alpha
	if v == vSerial {
		id := tr.begin("matmul", parent, op)
		workloads.SerialMatMul(in.a, in.b, m.out)
		tr.end(id)
		id = tr.begin("stream", parent, op)
		for i := range x {
			x[i] = fillPoly(i)
		}
		for i := range z {
			z[i] = float64(alpha*x[i]) + y[i]
		}
		tr.end(id)
		id = tr.begin("reduce", parent, op)
		var s int64
		for _, v := range in.vals {
			s += v
		}
		m.sum = s
		tr.end(id)
		id = tr.begin("walk.list", parent, op)
		workloads.WalkSerial(in.tree, lpTreeMod, lpTreeWork, &m.list)
		tr.end(id)
		id = tr.begin("walk.mutex", parent, op)
		workloads.WalkSerial(in.tree, lpTreeMod, lpTreeWork, &m.locked)
		tr.end(id)
		return nil
	}
	list := hyper.NewListAppend[*workloads.TreeNode]()
	err := rt.Run(func(c *sched.Context) {
		id := tr.begin("matmul", parent, op)
		workloads.MatMul(c, in.a, in.b, m.out)
		tr.end(id)
		id = tr.begin("stream", parent, op)
		workloads.FillSin(c, x)
		fid := tr.begin("pfor.for", id, op)
		pfor.For(c, 0, len(z), func(_ *sched.Context, i int) { z[i] = float64(alpha*x[i]) + y[i] })
		tr.end(fid)
		tr.end(id)
		id = tr.begin("hyper.reduce", parent, op)
		vals := in.vals
		m.sum = pfor.Reduce(c, 0, len(vals), m.add, func(_ *sched.Context, i int) int64 { return vals[i] })
		tr.end(id)
		id = tr.begin("hyper.listappend", parent, op)
		workloads.WalkReducer(c, in.tree, lpTreeMod, lpTreeWork, list)
		c.Sync()
		tr.end(id)
		id = tr.begin("cilklock.walk", parent, op)
		workloads.WalkMutex(c, in.tree, lpTreeMod, lpTreeWork, m.mu, &m.locked)
		c.Sync()
		tr.end(id)
	})
	if err != nil {
		return err
	}
	m.list = list.Value()
	return nil
}

// check verifies the five outputs of the pass just run.
func (m *loopsMix) check(variant) (attempted, wrong int64) {
	in := m.in
	attempted = 5
	if !slices.Equal(m.out.Elts, in.ref.Elts) {
		wrong++
	}
	for _, s := range in.samples {
		i := m.lo + s
		if in.x[i] != fillPoly(s) || in.z[i] != float64(m.alpha*in.x[i])+in.y[i] {
			wrong++
			break
		}
	}
	if m.sum != in.valsSum {
		wrong++
	}
	if !slices.Equal(m.list, in.walkRef) {
		wrong++
	}
	// The mutex walk appends in schedule order; it must hold the same nodes.
	slices.SortFunc(m.locked, func(a, b *workloads.TreeNode) int { return int(a.Value - b.Value) })
	ref := slices.Clone(in.walkRef)
	slices.SortFunc(ref, func(a, b *workloads.TreeNode) int { return int(a.Value - b.Value) })
	if !slices.Equal(m.locked, ref) {
		wrong++
	}
	return attempted, wrong
}

// lastLevelCache returns the size in bytes of the highest-level cache
// sysfs reports for cpu0, or 0 if it reports none.
func lastLevelCache() int64 {
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	bestLevel, bestSize := 0, int64(0)
	for _, d := range dirs {
		lv, err1 := os.ReadFile(filepath.Join(d, "level"))
		sz, err2 := os.ReadFile(filepath.Join(d, "size"))
		if err1 != nil || err2 != nil {
			continue
		}
		level, err := strconv.Atoi(strings.TrimSpace(string(lv)))
		if err != nil {
			continue
		}
		size := parseCacheSize(strings.TrimSpace(string(sz)))
		if level > bestLevel || (level == bestLevel && size > bestSize) {
			bestLevel, bestSize = level, size
		}
	}
	return bestSize
}

// parseCacheSize parses sysfs sizes such as "32K" or "105M".
func parseCacheSize(s string) int64 {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	case strings.HasSuffix(s, "G"):
		mult, s = 1<<30, strings.TrimSuffix(s, "G")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0
	}
	return n * mult
}

type loopsState struct {
	mix *loopsMix
	rts [numVariants]*sched.Runtime
}

func runLoops(cfg config) (*report, error) {
	rep := newReport()
	llc, llcNote := lastLevelCache(), "sysfs"
	if llc == 0 {
		llc, llcNote = lpDefaultLLC, "assumed; sysfs reports none"
	}
	streamLen := int(lpCacheMult * llc / (3 * 8))
	st, setup, err := timedSetup(func() (*loopsState, error) {
		st := &loopsState{mix: newLoopsMix(newLoopsInputs(cfg.seed, streamLen)), rts: newRuntimes(cfg.procs)}
		return st, warmUp(st.mix, st.rts)
	}, func(st *loopsState) { shutdownRuntimes(st.rts) })
	if err != nil {
		return nil, err
	}
	defer shutdownRuntimes(st.rts)
	rep.e2e["setup_s"] = setup
	rep.notef("last-level cache %d MiB (%s); stream arrays 3 x %d MiB = %d MiB, one of %d windows (%d MiB per array) per pass",
		llc>>20, llcNote, streamLen*8>>20, 3*streamLen*8>>20, lpStreamWins, streamLen*8/lpStreamWins>>20)
	rep.notef("mix: matmul %dx%d, fill+daxpy stream window, pfor.Reduce over %d int64s, tree walk (%d nodes) with list-append reducer and with mutex",
		lpMatN, lpMatN, lpReduceN, lpTreeN)

	tr := newTracer(cfg.trace)
	cr := measureClosed(cfg, st.mix, st.rts, tr, rep)
	reportClosed(cr, st.rts, rep)
	if tr != nil {
		L := rep.layers
		// Light-loop overhead per iteration: the reduce kernel's T_1 span
		// over its serial span (both from traced rounds).
		oneReduce, serialReduce := tr.durations("hyper.reduce", "pass.1w"), tr.durations("reduce", "pass.serial")
		L["pfor.ns_per_iter"] = (median(oneReduce) - median(serialReduce)) * 1e6 / lpReduceN
		L["pfor.call_ms"] = median(tr.durations("pfor.for", "pass.pw"))
		L["hyper.reduce_ms"] = median(tr.durations("hyper.reduce", "pass.pw"))
		L["hyper.listappend_ms"] = median(tr.durations("hyper.listappend", "pass.pw"))
		L["cilklock.walk_ms"] = median(tr.durations("cilklock.walk", "pass.pw"))
		if err := finishTrace(tr, "loops", cfg, rep); err != nil {
			return nil, err
		}
	}
	rep.finish()
	return rep, nil
}
