# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race race-serve vet bench bench-core bench-obs bench-run bench-scale bench-parallel bench-gate bench-merge benchmark-smoke exp-small exp-medium examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race detector over everything, including the parallel sweep runner and the
# concurrent-experiments test. The sweep-heavy exp package needs the long
# timeout on single-CPU runners.
race:
	$(GO) test -race -timeout 45m ./...

# The daemon's suite (admission control, retry classification, journal
# resume, the 50-job chaos drill) under the race detector — what CI's
# serve-smoke job runs first.
race-serve:
	$(GO) test -race -timeout 20m ./internal/serve/

# Regenerate every paper table/figure at benchmark (tiny) scale.
bench: bench-obs
	$(GO) test -bench=. -benchmem ./...

# Standing event-core benchmark: engine micro-benches (events/sec, ns/op,
# allocs/op, the cancel-churn delta against the frozen baseline) plus one
# full parallel sweep, recorded as BENCH_core.json so the perf trajectory of
# the hot loop is tracked in-repo. Sweep benches run a whole experiment per
# iteration, hence -benchtime=1x for that pass.
bench-core:
	@{ $(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkRegistry' -benchmem -benchtime 1s . && \
	   $(GO) test -run '^$$' -bench 'BenchmarkSweep' -benchmem -benchtime 1x . ; } \
	  | $(GO) run ./cmd/benchjson -out BENCH_core.json
	@echo "BENCH_core.json:" && cat BENCH_core.json

# Standing observability benchmark: a tiny instrumented fig1 sweep whose
# manifest (events/sec, wall time, run count) is the tracked blob.
bench-obs:
	$(GO) run ./cmd/vertigo-exp -scale tiny -sample-tick 200us -out artifacts fig1 >/dev/null
	cp artifacts/manifest.json BENCH_obs.json
	@echo "BENCH_obs.json:" && cat BENCH_obs.json

# Standing whole-run throughput benchmark: one frozen leaf-spine incast
# scenario simulated end-to-end (pkts/s, pkts/run) plus the per-packet
# datapath alloc gauges, recorded as BENCH_run.json. The pkts/s baseline
# is sticky: -prev carries the recorded pre-optimization reference
# forward so improvement_pct always reads against the same run.
bench-run:
	@{ $(GO) test -run '^$$' -bench 'BenchmarkRunThroughput$$' -benchtime 3x . && \
	   $(GO) test -run '^$$' -bench 'BenchmarkDatapath' -benchmem -benchtime 200000x . ; } \
	  | $(GO) run ./cmd/benchjson -prev BENCH_run.json -out BENCH_run.json
	@echo "BENCH_run.json:" && cat BENCH_run.json

# Standing million-flow benchmark: the scale=huge k=16 fat-tree scenario
# (1024 hosts, >1M flows in 10 simulated ms) run end-to-end once, recording
# pkts/s, flows/run and the process peak RSS as BENCH_scale.json. Run it
# alone: peak RSS is a process high-water mark, so sharing the process with
# other benchmarks would inflate the reading. The pkts/s baseline is sticky,
# like bench-run's.
bench-scale:
	@$(GO) test -run '^$$' -bench 'BenchmarkRunThroughputHuge$$' -benchtime 1x -timeout 30m . \
	  | $(GO) run ./cmd/benchjson -prev BENCH_scale.json -out BENCH_scale.json
	@echo "BENCH_scale.json:" && cat BENCH_scale.json

# Standing multi-core benchmark: the scale=huge scenario serial and sharded
# across 4 topology domains in one pass, recording both pkts/s figures and
# their ratio (the parallel_run block) as BENCH_parallel.json. Run with
# GOMAXPROCS unrestricted — the speedup is the whole point — and note the
# serial run here exists only as the speedup denominator; BENCH_scale.json
# stays the scale trajectory of record.
bench-parallel:
	@$(GO) test -run '^$$' -bench 'BenchmarkRunThroughputHuge(Parallel)?$$' -benchtime 1x -timeout 60m . \
	  | $(GO) run ./cmd/benchjson -out BENCH_parallel.json
	@echo "BENCH_parallel.json:" && cat BENCH_parallel.json

# Apply the CI perf gates to the committed benchmark blobs: the core
# cancel-churn delta must hold its >=20% win, whole-run pkts/s may not
# regress more than 10% against the sticky baseline, the per-packet
# datapath and metrics-registry benches must stay alloc-free, the
# million-flow scale run must hold its pkts/s and fit the 1 GiB peak-RSS
# envelope, and the sharded run must beat serial >= 2.0x on machines with
# at least 4 cores (warn-only below that). Same invocations CI runs.
bench-gate:
	$(GO) run ./cmd/benchgate -min-improve 20 -zero-alloc BenchmarkEngine -zero-alloc BenchmarkRegistry BENCH_core.json
	$(GO) run ./cmd/benchgate -max-regress 10 -zero-alloc BenchmarkDatapath BENCH_run.json
	$(GO) run ./cmd/benchgate -max-regress 10 -max-rss-mb 1024 BENCH_scale.json
	$(GO) run ./cmd/benchgate -min-parallel-speedup 2.0 BENCH_parallel.json

# Fold the per-suite blobs into BENCH.json, keyed by git revision, so the
# perf trajectory across PRs lives in one file.
bench-merge:
	$(GO) run ./cmd/benchjson -merge -rev $$(git rev-parse --short HEAD) \
	  -out BENCH.json BENCH_core.json BENCH_obs.json BENCH_run.json BENCH_scale.json BENCH_parallel.json
	@echo "BENCH.json:" && cat BENCH.json

# The benchmark of record (benchmark/, BENCHMARK.json) end to end on its
# quickest workload and on its biggest, through the wrapper the gating
# pipeline uses: builds ./benchmark into .bench_build, makes the set-up and
# timed children, checks the ledger, the completion floor and the digest's
# repeatability, and fails unless the result line says so. The timings are
# worth nothing — one second on a shared runner — it only proves the
# benchmark still builds and runs against the simulator it measures. Memory
# is another matter: fattree16_churn's peak RSS repeats to a few MiB, so the
# 1,024-host run must also stay under 256 MiB (it reads ~160), the first
# absolute memory bound on the benchmark of record.
benchmark-smoke:
	@for w in leafspine_bulk fattree16_churn; do \
	  line=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
	  echo "$$w $$line"; \
	  echo "$$line" | grep -q '"correct":true' && echo "$$line" | grep -q '"failed":0[,}]' || exit 1; \
	done; \
	rss=$$(echo "$$line" | sed -n 's/.*"peak_rss_mb":{"value":\([0-9]*\).*/\1/p'); \
	echo "fattree16_churn peak_rss_mb $$rss, bound 256"; \
	[ -n "$$rss" ] && [ "$$rss" -lt 256 ]

# Regenerate every paper table/figure from the CLI.
exp-small:
	$(GO) run ./cmd/vertigo-exp -scale small -parallel 2 all

exp-medium:
	$(GO) run ./cmd/vertigo-exp -scale medium -parallel 2 all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/hoststack
	$(GO) run ./examples/incast
	$(GO) run ./examples/fattree
	$(GO) run ./examples/failover

clean:
	$(GO) clean ./...
