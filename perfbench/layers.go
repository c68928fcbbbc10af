package main

import (
	"context"
	"sync"
	"time"

	"cilkgo/internal/deque"
	"cilkgo/internal/sched"
)

// spanDir is where traced runs write their spans, relative to the directory
// the benchmark runs in.
const spanDir = ".bench_build/spans"

// finishTrace adds the microbenchmark layers, writes the spans and notes
// each span name's total and self time.
func finishTrace(tr *tracer, workload string, cfg config, rep *report) error {
	for k, v := range measureLadder(cfg.procs) {
		rep.layers[k] = v
	}
	path, err := tr.write(spanDir, workload, cfg.seed)
	if err != nil {
		return err
	}
	rep.notef("spans written to %s; ladder and deque rungs are microbenchmarks, median of %d", path, ladderReps)
	for _, lt := range tr.selfTimes() {
		rep.notef("span %-26s count %7d  total %10.3f ms  self %10.3f ms", lt.Name, lt.Count, lt.TotalMS, lt.SelfMS)
	}
	return nil
}

// ladderReps is how many times each microbenchmark rung runs; the median
// is reported.
const ladderReps = 5

// timePer runs f(n) ladderReps times and returns the median time per unit
// in ns.
func timePer(n int, f func(n int)) float64 {
	var xs []float64
	for r := 0; r < ladderReps; r++ {
		start := time.Now()
		f(n)
		xs = append(xs, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(xs)
}

//go:noinline
func ladderLeaf(x int) int { return x + 1 }

var ladderSink int

// measureLadder times the spawn-cost ladder (plain call, closure, spawn on
// the serial elision, on one worker and on P workers, spawn/sync ping-pong,
// Submit round trip) and the deque operations, each from outside.
func measureLadder(procs int) map[string]float64 {
	L := map[string]float64{}
	L["ladder.call_ns"] = timePer(1<<20, func(n int) {
		s := 0
		for i := 0; i < n; i++ {
			s = ladderLeaf(s)
		}
		ladderSink = s
	})
	k := 3
	fns := []func(int) int{func(x int) int { return x + k }}
	L["ladder.closure_ns"] = timePer(1<<20, func(n int) {
		s := 0
		for i := 0; i < n; i++ {
			s = fns[i&0](s)
		}
		ladderSink = s
	})

	empty := func(*sched.Context) {}
	// wide spawns n empty children in batches of 64, syncing after each.
	wide := func(rt *sched.Runtime) func(n int) {
		return func(n int) {
			_ = rt.Run(func(c *sched.Context) {
				for i := 0; i < n; i += 64 {
					for j := 0; j < 64; j++ {
						c.Spawn(empty)
					}
					c.Sync()
				}
			})
		}
	}
	serial := sched.New(sched.WithSerialElision())
	one := sched.New(sched.WithWorkers(1))
	par := sched.New(sched.WithWorkers(procs))
	defer serial.Shutdown()
	defer one.Shutdown()
	defer par.Shutdown()
	L["ladder.spawn_serial_ns"] = timePer(1<<16, wide(serial))
	L["ladder.spawn_1w_ns"] = timePer(1<<16, wide(one))
	L["ladder.spawn_pw_ns"] = timePer(1<<16, wide(par))
	L["ladder.pingpong_ns"] = timePer(1<<14, func(n int) {
		_ = par.Run(func(c *sched.Context) {
			for i := 0; i < n; i++ {
				c.Spawn(empty)
				c.Sync()
			}
		})
	})
	L["ladder.submit_rt_us"] = timePer(1<<11, func(n int) {
		for i := 0; i < n; i++ {
			tk, err := par.Submit(context.Background(), empty)
			if err == nil {
				_ = tk.Wait()
			}
		}
	}) / 1e3

	item := 1
	d := deque.New[int]()
	L["deque.push_pop_ns"] = timePer(1<<20, func(n int) {
		for i := 0; i < n; i++ {
			d.PushBottom(&item)
			d.PopBottom()
		}
	})
	// One owner fills the deque, then one thief goroutine empties it.
	L["deque.steal_ns"] = timePer(1<<16, func(n int) {
		for i := 0; i < n; i++ {
			d.PushBottom(&item)
		}
		thief(func() {
			for d.Steal() != nil {
			}
		})
	})
	// Per task obtained, including popping the batch off the thief's deque.
	dst := deque.New[int]()
	L["deque.steal_batch_ns"] = timePer(1<<16, func(n int) {
		for i := 0; i < n; i++ {
			d.PushBottom(&item)
		}
		thief(func() {
			for {
				first, _ := d.StealBatch(dst)
				if first == nil {
					return
				}
				for dst.PopBottom() != nil {
				}
			}
		})
	})
	return L
}

// thief runs f on another goroutine and waits for it.
func thief(f func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		f()
	}()
	wg.Wait()
}
