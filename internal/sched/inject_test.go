package sched

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

// laneTask builds a bare root task for lane unit tests — no runtime, just
// the frame.run fields push/pop read.
func laneTask(cls QoSClass, prio int) *task {
	rs := &runState{qos: cls, prio: prio}
	return &task{fn: func(*Context) {}, frame: &frame{run: rs}}
}

func TestParseQoS(t *testing.T) {
	cases := []struct {
		in   string
		want QoSClass
		ok   bool
	}{
		{"interactive", QoSInteractive, true},
		{"batch", QoSBatch, true},
		{"best-effort", QoSBestEffort, true},
		{"bulk", QoSBatch, false},
		{"", QoSBatch, false},
	}
	for _, c := range cases {
		got, ok := ParseQoS(c.in)
		if got != c.want || ok != c.ok {
			t.Errorf("ParseQoS(%q) = %v, %v; want %v, %v", c.in, got, ok, c.want, c.ok)
		}
	}
	if s := QoSClass(9).String(); s != "invalid" {
		t.Errorf("QoSClass(9).String() = %q", s)
	}
}

// TestLaneDRRWeights: with every class backlogged, each full DRR rotor cycle
// serves exactly weight pops per class, so service converges to 8:4:1.
func TestLaneDRRWeights(t *testing.T) {
	l := &injectLane{}
	const perClass = 64
	for i := 0; i < perClass; i++ {
		for c := 0; c < numQoS; c++ {
			l.push(laneTask(QoSClass(c), 0), QoSClass(c), 0)
		}
	}
	cycle := 0
	for c := 0; c < numQoS; c++ {
		cycle += qosWeights[c]
	}
	// Pop one full cycle at a time while all classes still hold backlog and
	// check the per-class counts match the weights exactly.
	cycles := (perClass / qosWeights[QoSInteractive]) - 1
	for cy := 0; cy < cycles; cy++ {
		var got [numQoS]int
		for i := 0; i < cycle; i++ {
			tk := l.pop()
			if tk == nil {
				t.Fatalf("cycle %d: lane ran dry after %d pops", cy, i)
			}
			got[tk.frame.run.qos]++
		}
		if got != qosWeights {
			t.Fatalf("cycle %d: service %v, want weights %v", cy, got, qosWeights)
		}
	}
}

// TestLanePriorityWithinClass: higher priorities pop first within one class;
// equal priorities keep arrival order; priority never crosses classes.
func TestLanePriorityWithinClass(t *testing.T) {
	l := &injectLane{}
	a := laneTask(QoSBatch, 0)
	b := laneTask(QoSBatch, 5)
	c := laneTask(QoSBatch, 5)
	d := laneTask(QoSBatch, 1)
	for _, tk := range []*task{a, b, c, d} {
		l.push(tk, QoSBatch, tk.frame.run.prio)
	}
	want := []*task{b, c, d, a} // prio 5 (arrival order), 1, 0
	for i, w := range want {
		if got := l.pop(); got != w {
			t.Fatalf("pop %d: got prio %d, want prio %d", i, got.frame.run.prio, w.frame.run.prio)
		}
	}
	if l.pop() != nil {
		t.Fatal("lane not empty after draining")
	}
}

// TestLaneEmptyClassForfeitsDeficit: a class visited while empty resets its
// deficit, so an idle class cannot bank credit and burst later. After the
// interactive queue sat empty through many rotor cycles, a freshly-pushed
// interactive root still only gets its normal weight-8 share per cycle.
func TestLaneEmptyClassForfeitsDeficit(t *testing.T) {
	l := &injectLane{}
	for i := 0; i < 40; i++ {
		l.push(laneTask(QoSBestEffort, 0), QoSBestEffort, 0)
	}
	for i := 0; i < 20; i++ {
		if tk := l.pop(); tk == nil || tk.frame.run.qos != QoSBestEffort {
			t.Fatalf("pop %d: %v", i, tk)
		}
		if l.deficit[QoSInteractive] != 0 {
			t.Fatalf("idle interactive class banked deficit %d", l.deficit[QoSInteractive])
		}
	}
	// Now backlog interactive too: each full cycle serves at most weight-8
	// interactive pops — no banked burst from the idle stretch.
	for i := 0; i < 20; i++ {
		l.push(laneTask(QoSInteractive, 0), QoSInteractive, 0)
	}
	inARow := 0
	for {
		tk := l.pop()
		if tk == nil {
			break
		}
		if tk.frame.run.qos == QoSInteractive {
			inARow++
			if inARow > qosWeights[QoSInteractive] {
				t.Fatalf("interactive served %d in a row, weight is %d", inARow, qosWeights[QoSInteractive])
			}
		} else {
			inARow = 0
		}
	}
}

// TestLaneForPlacement: tenant-labeled submissions hash to a stable lane;
// anonymous ones round-robin across every lane.
func TestLaneForPlacement(t *testing.T) {
	rt := New(WithWorkers(4))
	defer rt.Shutdown()
	l := rt.laneFor("tenant-a")
	for i := 0; i < 8; i++ {
		if rt.laneFor("tenant-a") != l {
			t.Fatal("tenant lane placement is not stable")
		}
	}
	seen := map[*injectLane]bool{}
	for i := 0; i < 64; i++ {
		seen[rt.laneFor("")] = true
	}
	if len(seen) != len(rt.lanes) {
		t.Fatalf("round-robin placement hit %d of %d lanes", len(seen), len(rt.lanes))
	}
}

// TestLaneHashDeterministic: tenant→lane placement is a pure function of
// the steal seed and the tenant label. Two runtimes built with the same seed
// must agree on every tenant's lane index; this used to be violated by a
// process-random maphash seed, which broke schedfuzz's trial-reproducibility
// contract and WithStealSeed reproductions. Different seeds must be able to
// disagree (the seed actually feeds the hash), and the placement spreads
// across lanes rather than collapsing onto one.
func TestLaneHashDeterministic(t *testing.T) {
	tenants := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	laneIdx := func(rt *Runtime, tenant string) int {
		l := rt.laneFor(tenant)
		for i, cand := range rt.lanes {
			if cand == l {
				return i
			}
		}
		t.Fatalf("laneFor(%q) returned an unknown lane", tenant)
		return -1
	}
	a := New(WithWorkers(8), WithStealSeed(42))
	b := New(WithWorkers(8), WithStealSeed(42))
	defer a.Shutdown()
	defer b.Shutdown()
	seen := map[int]bool{}
	for _, tenant := range tenants {
		ia, ib := laneIdx(a, tenant), laneIdx(b, tenant)
		if ia != ib {
			t.Fatalf("same-seed runtimes place %q on lanes %d vs %d", tenant, ia, ib)
		}
		seen[ia] = true
	}
	if len(seen) < 2 {
		t.Fatalf("all %d tenants collapsed onto one lane", len(tenants))
	}
	// The raw hash is stable across processes too (no process randomness):
	// pin one value so any accidental reseeding breaks loudly.
	if got := laneHash(42, "alpha"); got != 0xfbad89e016cdcd09 {
		t.Fatalf("laneHash(42, alpha) = %#x, want 0xfbad89e016cdcd09 — placement no longer stable across processes", got)
	}
	if laneHash(42, "alpha") == laneHash(43, "alpha") && laneHash(42, "beta") == laneHash(43, "beta") {
		t.Fatal("steal seed does not feed the lane hash")
	}
}

// TestInteractiveNotStarvedByFlood: end-to-end DRR. One worker, its lane
// pre-loaded with a deep best-effort backlog; an interactive submission must
// be picked up within the first DRR cycle or two, not after the flood.
func TestInteractiveNotStarvedByFlood(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()

	// Block the only worker so submissions pile up in the lane.
	gate := make(chan struct{})
	blocker, err := rt.Submit(context.Background(), func(*Context) { <-gate })
	if err != nil {
		t.Fatal(err)
	}

	const flood = 200
	var finished atomic.Int64
	var tickets []*Ticket
	for i := 0; i < flood; i++ {
		tk, err := rt.Submit(context.Background(),
			func(*Context) { finished.Add(1) },
			WithQoS(QoSBestEffort), WithTenant("flood"))
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	var interactivePos atomic.Int64
	itk, err := rt.Submit(context.Background(),
		func(*Context) { interactivePos.Store(finished.Add(1)) },
		WithQoS(QoSInteractive), WithTenant("ui"))
	if err != nil {
		t.Fatal(err)
	}

	close(gate)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := itk.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	// The single lane's rotor serves at most weight(batch)+weight(best-effort)
	// pops before reaching the interactive class again; allow slack for where
	// the rotor happened to sit, but the flood must not drain first.
	if pos := interactivePos.Load(); pos > 16 {
		t.Fatalf("interactive root finished at position %d of %d — starved by best-effort flood", pos, flood+1)
	}
	if lat := itk.QueueLatency(); lat <= 0 {
		t.Fatalf("interactive QueueLatency = %v, want > 0 after queued pickup", lat)
	}
}

// TestQueuedByClassGauge: the per-class queued gauges rise while roots wait
// and return to zero at drain.
func TestQueuedByClassGauge(t *testing.T) {
	rt := New(WithWorkers(1))
	defer rt.Shutdown()
	gate := make(chan struct{})
	blocker, err := rt.Submit(context.Background(), func(*Context) { <-gate })
	if err != nil {
		t.Fatal(err)
	}
	var tks []*Ticket
	for i := 0; i < 3; i++ {
		tk, err := rt.Submit(context.Background(), func(*Context) {}, WithQoS(QoSBestEffort))
		if err != nil {
			t.Fatal(err)
		}
		tks = append(tks, tk)
	}
	if n := rt.queuedByClass[QoSBestEffort].Load(); n != 3 {
		t.Fatalf("queuedByClass[best-effort] = %d, want 3", n)
	}
	if n := rt.Metrics()["queued_best_effort"]; n != 3 {
		t.Fatalf("Metrics queued_best_effort = %d, want 3", n)
	}
	close(gate)
	if err := blocker.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tks {
		if err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for rt.injected.Load() != 0 {
		if !time.Now().Before(deadline) {
			t.Fatalf("injected gauge stuck at %d after drain", rt.injected.Load())
		}
		time.Sleep(time.Millisecond)
	}
	for c := 0; c < numQoS; c++ {
		if n := rt.queuedByClass[c].Load(); n != 0 {
			t.Fatalf("queuedByClass[%v] = %d after drain, want 0", QoSClass(c), n)
		}
	}
}
