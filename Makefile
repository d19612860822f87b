# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-budget test-short race race-serve vet fuzz-smoke benchmark-smoke benchmark-compare exp-small exp-medium examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Tier-1 under a wall budget (needs jq): every package's elapsed time and the
# ten slowest tests; fails when a package takes more than 300 s, half of go
# test's default 600 s package timeout. CI's test job runs it.
test-budget:
	scripts/test-budget.sh

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

# Every fuzz target in the module, found by name, fuzzed for 10 s each —
# what CI's fuzz-smoke job runs. Tier-1 runs only their checked-in seeds; a
# failing input lands under the package's testdata/fuzz/ for committing.
fuzz-smoke:
	@n=0; for f in $$(grep -rl --include='*_test.go' --exclude-dir=.bench_build '^func Fuzz' .); do \
	  for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
	    echo "$$(dirname $$f) $$t"; n=$$((n + 1)); \
	    $(GO) test -run='^$$' -fuzz="^$$t\$$" -fuzztime=10s $$(dirname $$f) || exit 1; \
	  done; \
	done; echo "$$n fuzz targets"

# The benchmark of record (benchmark/, BENCHMARK.json) end to end on its
# quickest workload, its headline one and its biggest, through the wrapper
# the gating pipeline uses: builds ./benchmark into .bench_build, makes the
# set-up and timed children, checks the ledger, the completion floor and the
# digest's repeatability, and fails unless the result line says so. The
# timings are worth nothing — one second on a shared runner — it only proves
# the benchmark still builds and runs against the simulator it measures.
# Memory is another matter: peak RSS repeats to a few MiB and allocs_per_pkt
# is exact for a seed, so two runs carry absolute bounds. leafspine_incast
# must stay under 30 MiB (it reads 24). The 1,024-host fattree16_churn must
# stay under 85 MiB (it reads 73–78) and at or under 0.25 allocations a
# packet (it reads 0.06).
benchmark-smoke:
	@for w in leafspine_bulk leafspine_incast fattree16_churn; do \
	  line=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
	  echo "$$w $$line"; \
	  echo "$$line" | grep -q '"correct":true' && echo "$$line" | grep -q '"failed":0[,}]' || exit 1; \
	  rss=$$(echo "$$line" | sed -n 's/.*"peak_rss_mb":{"value":\([0-9]*\).*/\1/p'); \
	  apk=$$(echo "$$line" | sed -n 's/.*"allocs_per_pkt":{"value":\([0-9.e+-]*\).*/\1/p'); \
	  case $$w in \
	  leafspine_incast) \
	    echo "$$w peak_rss_mb $$rss, bound 30"; \
	    [ -n "$$rss" ] && [ "$$rss" -lt 30 ] || exit 1;; \
	  fattree16_churn) \
	    echo "$$w peak_rss_mb $$rss, bound 85; allocs_per_pkt $$apk, bound 0.25"; \
	    [ -n "$$rss" ] && [ "$$rss" -lt 85 ] && [ -n "$$apk" ] && awk -v a="$$apk" 'BEGIN { exit !(a + 0 <= 0.25) }' || exit 1;; \
	  esac; \
	done

# The benchmark of record on two revisions, and its verdict: unpacks BASE's
# committed tree under .bench_build/, runs every workload there and then
# here — each tree building its own benchmark from its own source — and
# prints `-compare`'s table of the two result.json files. The exit status is
# the comparison's: non-zero on a `worse` row or a higher fail_rate.
# `unresolved` rows (a side's own runs spread wider than the bound) are not
# `ok`; report them as such. About ten minutes on two cores. A BASE git cannot
# resolve stops at git's error, before anything runs.
#
#	make benchmark-compare BASE=origin/main
CMP := $(CURDIR)/.bench_build/compare
benchmark-compare:
	@test -n "$(BASE)" || { echo "usage: make benchmark-compare BASE=<rev>" >&2; exit 2; }
	rm -rf $(CMP) && mkdir -p $(CMP)/base-tree
	git archive -o $(CMP)/base.tar $(BASE)
	tar -xf $(CMP)/base.tar -C $(CMP)/base-tree
	cd $(CMP)/base-tree && bash benchmark/run.sh -out $(CMP)/base >/dev/null
	bash benchmark/run.sh -out $(CMP)/head >/dev/null
	bash benchmark/run.sh -compare $(CMP)/base/result.json $(CMP)/head/result.json

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
