GO ?= go

.PHONY: all build vet test race bench bench-cancel bench-steal bench-pfor bench-san bench-obs bench-serve bench-local bench-spawn bench-mem prof-spawn mint-baseline stress-deque fuzz-sched fuzz-sched-long clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full suite, plus the scheduler and trace packages under the race detector
# (the tracer's lock-free drain and the per-run counters are the parts most
# worth hammering with -race).
test: vet
	$(GO) test ./...
	$(GO) test -race -count=1 ./internal/sched/... ./internal/trace/... ./internal/pfor/...

race:
	$(GO) test -race -count=1 ./...

# Run the benchmark harness and record it as JSON for cross-commit diffing.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./... | tee /dev/stderr | $(GO) run ./cmd/benchjson > BENCH_trace.json

# Cancellation-overhead gate: run the C-series benchmarks (uncancelled fib and
# matmul through the robustness layer, plus cancel latency) and diff the
# uncancelled runs against the committed seed measurement — the resulting
# BENCH_cancel.json carries overhead_pct vs. seed per benchmark.
bench-cancel:
	$(GO) test -run '^$$' -bench 'BenchmarkCancel' -benchmem -count=3 . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -baseline bench_seed_baseline.json > BENCH_cancel.json

# Steal-path gate: run the S-series benchmarks (steal-heavy fib, wide
# cilk_for, spawn/sync ping-pong) plus the uncancelled C-series runs as the
# no-regression guard, diffed against the committed seed measurement — the
# resulting BENCH_steal.json carries attempts-per-task and batches-per-steal
# metrics alongside overhead_pct vs. seed for the guarded benchmarks.
bench-steal:
	$(GO) test -run '^$$' -bench 'BenchmarkSteal|BenchmarkCancelFibUncancelled|BenchmarkCancelMatmulUncancelled' -benchmem -count=3 . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -baseline bench_seed_baseline.json > BENCH_steal.json

# Loop-splitting gate: run the L-series benchmarks (wide light loop, daxpy,
# nested 2D, pooled reduce — each reporting splits/chunks/range-steals per op)
# plus the uncancelled fib/matmul C-series runs as the ±2% no-regression
# guard, diffed against the committed seed measurement into BENCH_pfor.json.
# count=5 (vs 3 elsewhere): the guard compares minima across samples, and
# the fib run is noisy enough on shared runners that 3 samples routinely
# miss the floor.
bench-pfor:
	$(GO) test -run '^$$' -bench 'BenchmarkLoop|BenchmarkCancelFibUncancelled|BenchmarkCancelMatmulUncancelled' -benchmem -count=5 . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -baseline bench_seed_baseline.json > BENCH_pfor.json

# Sanitizer-overhead gate: the same uncancelled fib/matmul C-series runs as
# the other gates (the runtime's sanitizer hooks sit on their hot paths),
# diffed against the committed seed measurement into BENCH_san.json — proving
# the disabled sanitizer costs <2% on the spawn/steal/join fast paths.
bench-san:
	$(GO) test -run '^$$' -bench 'BenchmarkCancelFibUncancelled|BenchmarkCancelMatmulUncancelled' -benchmem -count=5 . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -baseline bench_seed_baseline.json > BENCH_san.json

# Observability-overhead gate: the uncancelled fib/matmul C-series runs (no
# observer — proving a runtime built without WithObserver stays within ±2% of
# the committed seed measurement) plus the O-series runs of the same
# workloads on an observed runtime, which record what live work/span
# accounting costs when it is switched on. Diffed into BENCH_obs.json.
bench-obs:
	$(GO) test -run '^$$' -bench 'BenchmarkObs|BenchmarkCancelFibUncancelled|BenchmarkCancelMatmulUncancelled' -benchmem -count=5 . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -baseline bench_seed_baseline.json > BENCH_obs.json

# Serving-latency gate: boot examples/serve with the demo tenant→class map
# and admission armed, sweep best-effort load 1×→10× with cmd/cilkload's
# open-loop Poisson generator, and record per-tenant latency percentiles into
# BENCH_serve.json. Gates twice: cilkload itself fails if interactive p99
# degraded more than 2× across the sweep (the DRR starvation-resistance
# claim — a within-run ratio, so machine-speed noise cancels), and benchjson
# -serve fails on a p99 regression vs. the committed
# bench_serve_baseline.json (absent baseline = pass-through, so the first
# run mints it). The benchjson default budget is 10%, but absolute tail
# percentiles on shared runners swing far wider than ratios do, so this
# recipe passes -maxp99 60 and the committed baseline is the per-series
# worst of three mint runs; the exact per-series delta is recorded in
# BENCH_serve.json either way.
SERVE_ADDR ?= 127.0.0.1:18080
bench-serve:
	$(GO) build -o /tmp/cilk-serve ./examples/serve
	/tmp/cilk-serve -addr $(SERVE_ADDR) \
		-tenantclass 'pro=interactive,free=best-effort' -quota 'free=16' & \
	pid=$$!; sleep 1; \
	$(GO) run ./cmd/cilkload -url http://$(SERVE_ADDR) \
		-tenants 'pro:interactive:10:/sinsum?n=800000,free:best-effort:50:/sinsum?n=100000' \
		-sweep 1,2,5,10 -dur 3s -maxdegrade 2.0 -seed 1 > /tmp/cilkload_serve.json; \
	load=$$?; kill $$pid 2>/dev/null; \
	$(GO) run ./cmd/benchjson -serve -maxp99 60 -baseline bench_serve_baseline.json \
		< /tmp/cilkload_serve.json > BENCH_serve.json; \
	status=$$?; if [ $$load -ne 0 ]; then exit $$load; fi; exit $$status

# Locality gate: run the D-series benchmarks (wide loop flat vs. 2-domain —
# reporting the local-steal fraction — plus domain-partitioned fib) alongside
# the uncancelled fib/matmul C-series runs as the ±2% no-regression guard,
# diffed against the committed seed measurement into BENCH_local.json.
bench-local:
	$(GO) test -run '^$$' -bench 'BenchmarkLocal|BenchmarkCancelFibUncancelled|BenchmarkCancelMatmulUncancelled' -benchmem -count=3 . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -baseline bench_seed_baseline.json > BENCH_local.json

# Spawn fast-path gate: run the W-series benchmarks (spawn-dense fib, flat
# wide spawn, the hyperobject-free vs reducer-heavy pair) plus the
# uncancelled C-series runs as the no-regression guard, into
# BENCH_spawn.json. Two in-process gates ride on it, neither of which can go
# stale the way a committed ns/op baseline does: -gateallocs pins exact
# allocation counts (fib's 57320 is 2 user closure captures per spawn with
# zero scheduler contribution — see spawn_bench_test.go; wide-flat's 8
# bounds the fixed per-Run setup with nothing per spawn), and -ab records
# the reducer machinery's cost against the hyperobject-free twin measured in
# the same process. The committed seed baseline still tracks cross-commit
# drift for the C-series guard (see EXPERIMENTS.md for the minting
# procedure).
bench-spawn:
	$(GO) test -run '^$$' -bench 'BenchmarkSpawn|BenchmarkCancelFibUncancelled|BenchmarkCancelMatmulUncancelled' -benchmem -count=3 . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -baseline bench_seed_baseline.json \
			-gateallocs 'BenchmarkSpawnFib=57320,BenchmarkSpawnWideFlat=8' \
			-ab 'BenchmarkSpawnReducerHeavy=BenchmarkSpawnHyperFree' > BENCH_spawn.json

# Memory-accounting gate: run the M-series benchmarks (fib and matmul through
# Submit with accounting disarmed, plus their budget-armed twins) alongside
# the uncancelled C-series runs, into BENCH_mem.json. The -ab pairs gate the
# disarmed path at 2% against the C-series twin measured in the same process —
# proving a runtime that never sees WithMemoryBudget pays only nil checks for
# the enforcement machinery. The budget-armed twins are recorded but not
# gated (arming is opt-in per run); the committed seed baseline still tracks
# cross-commit drift for the guarded benchmarks. count=6 with a short
# benchtime (vs 3 full-length elsewhere): the A/B compares minima, and the
# paired benchmarks run ~20s apart in the process, so frequency drift across
# few long samples flakes a 2% gate where many short samples hold it.
bench-mem:
	$(GO) test -run '^$$' -bench 'BenchmarkMem|BenchmarkCancelFibUncancelled|BenchmarkCancelMatmulUncancelled' -benchmem -benchtime 0.5s -count=6 . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson -baseline bench_seed_baseline.json \
			-ab 'BenchmarkMemFibNoBudget=BenchmarkCancelFibUncancelled,BenchmarkMemMatmulNoBudget=BenchmarkCancelMatmulUncancelled' \
			-maxab 2 > BENCH_mem.json

# Spawn fast-path profiles: CPU and allocation pprof captures of the
# spawn-dense fib shape, for digging into a bench-spawn regression.
prof-spawn:
	$(GO) test -run '^$$' -bench 'BenchmarkSpawnFib' -benchtime 2s \
		-cpuprofile spawn_cpu.out -memprofile spawn_mem.out .
	@echo "inspect with: $(GO) tool pprof -top spawn_cpu.out"
	@echo "              $(GO) tool pprof -top -sample_index=alloc_objects spawn_mem.out"

# Re-mint the committed seed baseline on the current machine: the absolute
# ns/op numbers in bench_seed_baseline.json are only comparable to runs on
# the same hardware, so a machine change (or a deliberate re-anchoring after
# an accepted perf change) re-runs every gated benchmark and rewrites the
# file. See EXPERIMENTS.md for when re-minting is legitimate.
mint-baseline:
	$(GO) test -run '^$$' -bench 'BenchmarkCancel|BenchmarkSteal|BenchmarkLoop|BenchmarkObs|BenchmarkLocal|BenchmarkSpawn' -benchmem -count=5 . \
		| tee /dev/stderr \
		| $(GO) run ./cmd/benchjson > bench_seed_baseline.json

# Deque stress: the grow-vs-thieves and batch-steal tests plus the scheduler's
# steal-path, lazy-loop exactly-once, and steal-domain tests — and the
# fault-injected Gate/San suites (forced claim/CAS failures, stretched claim
# windows, seeded fault schedules) — repeated under the race detector
# (mirrors the CI job).
stress-deque:
	$(GO) test -race -count=5 -run 'StealBatch|GrowRacesThieves|ClearsSlots|UnparkWakeup|HuntPhase|RangeExactlyOnce|Gate|San|Domain' ./internal/deque/ ./internal/sched/
	$(GO) test -race -count=5 -run 'TestAlloc' .

# Schedule fuzzing: the pinned regression corpus plus 1000 fresh seeded fault
# schedules through the schedfuzz property suites with invariants and the
# stall watchdog armed. Deterministic: every trial is a pure function of its
# seed; reproduce a failure with `go run ./cmd/schedfuzz -run <seed> -v`.
fuzz-sched:
	$(GO) run ./cmd/schedfuzz -corpus cmd/schedfuzz/testdata/corpus.json -trials 1000 -seed 1

# Nightly long run: a large randomized sweep starting from a caller-supplied
# seed base (default 1; CI passes the run id) so successive nights cover new
# schedules.
FUZZ_SEED ?= 1
fuzz-sched-long:
	$(GO) run ./cmd/schedfuzz -trials 20000 -seed $(FUZZ_SEED) -stall 5s

clean:
	rm -f BENCH_trace.json BENCH_cancel.json BENCH_steal.json BENCH_pfor.json BENCH_san.json BENCH_obs.json BENCH_serve.json BENCH_local.json BENCH_mem.json BENCH_spawn.json trace.json
