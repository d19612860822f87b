# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-budget test-short race race-serve vet shard-smoke benchmark-smoke benchmark-compare exp-small exp-medium examples clean

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

# Sharded runs outside `go test` — what CI's shard-smoke job runs (needs jq).
# Per-count determinism at the CLI: two `-shards 2` renders of fig1 are the
# same bytes. The offered workload is a function of the seed alone — not of
# the shard count, not of the policy: all twelve runs of fig1 report the same
# flows_started and queries_started serial and sharded, and every system at
# one load reports the same pair. And every probe shards: `vertigo-sim -shards
# 2 -telemetry -packet-trace` prints a Monitor report and writes a JSONL trace,
# both merged across the domains, the same bytes on a second run.
SMOKE := $(CURDIR)/.bench_build/shard-smoke
STARTED := [.runs[] | [.label, .summary.flows_started, .summary.queries_started]] | sort
SMOKE_SIM := $(GO) run ./cmd/vertigo-sim -scheme vertigo -duration 10ms -shards 2 -telemetry -packet-trace
shard-smoke:
	rm -rf $(SMOKE) && mkdir -p $(SMOKE)
	$(GO) run ./cmd/vertigo-exp -scale tiny -shards 2 fig1 > $(SMOKE)/a.txt
	$(GO) run ./cmd/vertigo-exp -scale tiny -shards 2 fig1 > $(SMOKE)/b.txt
	test -s $(SMOKE)/a.txt && cmp $(SMOKE)/a.txt $(SMOKE)/b.txt
	$(GO) run ./cmd/vertigo-exp -scale tiny -shards 0 -out $(SMOKE)/serial fig1 > /dev/null
	$(GO) run ./cmd/vertigo-exp -scale tiny -shards 2 -out $(SMOKE)/sharded fig1 > /dev/null
	jq -c '$(STARTED)' $(SMOKE)/serial/results.json > $(SMOKE)/serial.started
	jq -c '$(STARTED)' $(SMOKE)/sharded/results.json > $(SMOKE)/sharded.started
	jq -e 'length == 12 and all(.[]; .[1] > 0 and .[2] > 0)' $(SMOKE)/serial.started
	jq -e 'group_by(.[0] | split("/")[2]) | length == 4 and all(.[]; map(.[1:]) | unique | length == 1)' $(SMOKE)/serial.started
	cmp $(SMOKE)/serial.started $(SMOKE)/sharded.started
	$(SMOKE_SIM) $(SMOKE)/p.jsonl > $(SMOKE)/sim-a.txt
	$(SMOKE_SIM) $(SMOKE)/q.jsonl > $(SMOKE)/sim-b.txt
	cmp $(SMOKE)/sim-a.txt $(SMOKE)/sim-b.txt && cmp $(SMOKE)/p.jsonl $(SMOKE)/q.jsonl
	grep -q 'congestion episodes' $(SMOKE)/sim-a.txt
	head -n 1 $(SMOKE)/p.jsonl | jq -e .t && tail -n 1 $(SMOKE)/p.jsonl | jq -e .t

# The benchmark of record (benchmark/, BENCHMARK.json) end to end on its
# quickest workload, its headline one and its biggest, through the wrapper
# the gating pipeline uses: builds ./benchmark into .bench_build, makes the
# set-up and timed children, checks the ledger, the completion floor and the
# digest's repeatability, and fails unless the result line says so. The
# timings are worth nothing — one second on a shared runner — it only proves
# the benchmark still builds and runs against the simulator it measures.
# Memory is another matter: peak RSS repeats to a few MiB and allocs_per_pkt
# is exact for a seed, so two runs carry absolute bounds. leafspine_incast
# must stay under 34 MiB (it reads 26; 40–41 while every finished inbound
# flow kept a handler binding, every completed flow its record and every
# orderer tombstone a 128-byte slot and its own reclaim timer). The
# 1,024-host fattree16_churn must stay under 92 MiB (it reads 83–84; 100–110
# before the same change, 125–132 while duplicate filters kept every page
# they ever touched and dead far timers waited in the overflow heap) and at
# or under 0.25 allocations a packet (it reads 0.07; 0.57 while hosts, ports
# and sender slots each allocated their own).
benchmark-smoke:
	@for w in leafspine_bulk leafspine_incast fattree16_churn; do \
	  line=$$(bash benchmark/run.sh --workload $$w --seed 1 --seconds 1 --trace 0 | tail -n 1); \
	  echo "$$w $$line"; \
	  echo "$$line" | grep -q '"correct":true' && echo "$$line" | grep -q '"failed":0[,}]' || exit 1; \
	  rss=$$(echo "$$line" | sed -n 's/.*"peak_rss_mb":{"value":\([0-9]*\).*/\1/p'); \
	  apk=$$(echo "$$line" | sed -n 's/.*"allocs_per_pkt":{"value":\([0-9.e+-]*\).*/\1/p'); \
	  case $$w in \
	  leafspine_incast) \
	    echo "$$w peak_rss_mb $$rss, bound 34"; \
	    [ -n "$$rss" ] && [ "$$rss" -lt 34 ] || exit 1;; \
	  fattree16_churn) \
	    echo "$$w peak_rss_mb $$rss, bound 92; allocs_per_pkt $$apk, bound 0.25"; \
	    [ -n "$$rss" ] && [ "$$rss" -lt 92 ] && [ -n "$$apk" ] && awk -v a="$$apk" 'BEGIN { exit !(a + 0 <= 0.25) }' || exit 1;; \
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
