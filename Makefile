GO ?= go

.PHONY: build test verify lint fuzz bench bench-smoke load-smoke rebalance-soak cover allocguard clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# verify is the full pre-merge gate: build, vet, and the complete test
# suite under the race detector (the parallel sub-cluster sweep makes
# -race load-bearing, not optional), plus vet and tests of the nested
# perfbench module, which the root ./... never builds but which calls
# the core API.
verify:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# lint runs the project's static-analysis gate: gofmt, go vet, the
# seven aladdin-vet invariant analyzers (determinism, errflow,
# hotalloc, intcap, lockcheck, lockorder, ordinalflow), and the
# suppression audit that keeps the //aladdin: marker inventory honest
# (every marker known, reasoned, and still load-bearing).  staticcheck
# and govulncheck run too when installed — locally they are optional
# (no network to fetch them), in CI they are installed and mandatory.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...
	$(GO) run ./cmd/aladdin-vet ./...
	$(GO) run ./cmd/aladdin-vet -audit-suppressions ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
		else echo "lint: govulncheck not installed, skipping"; fi

# cover runs the suite with coverage and prints the per-package and
# total summary.
cover:
	$(GO) test -cover -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

# allocguard verifies the allocation-free fast paths stay that way:
# the disabled-observability seams (a nil-sink Tracer.Emit and
# nil-registry counter must cost 0 allocs/op, so uninstrumented
# schedulers pay nothing) and the scheduler core itself (a warm
# Session.Place/Remove cycle must run entirely out of session scratch
# — see TestSessionPlaceZeroAlloc for the same contract as a test).
allocguard:
	@out="$$($(GO) test ./internal/obs/ -run='^$$' -bench='BenchmarkTracerDisabled|BenchmarkCounterDisabled' -benchmem -benchtime=1000x)"; \
	echo "$$out"; \
	if echo "$$out" | grep -E '^Benchmark' | awk '{ if ($$(NF-1) != 0) exit 1 }'; then \
		echo "allocguard: disabled obs paths are allocation-free"; \
	else \
		echo "allocguard: nil-sink path allocates!" >&2; exit 1; \
	fi
	@out="$$($(GO) test ./internal/core/ -run='^$$' -bench='BenchmarkSessionPlace' -benchmem -benchtime=2000x)"; \
	echo "$$out"; \
	if echo "$$out" | grep -E '^Benchmark' | awk '{ if ($$(NF-1) != 0) exit 1 }'; then \
		echo "allocguard: Session.Place hot path is allocation-free"; \
	else \
		echo "allocguard: Session.Place allocates!" >&2; exit 1; \
	fi
	$(GO) test ./internal/core/ -run='^TestSessionPlaceZeroAlloc$$' -count=1

# fuzz gives each invariant fuzz target a short budget beyond its
# committed seed corpus; FUZZTIME=5m for a serious soak.
FUZZTIME ?= 10s
fuzz:
	$(GO) test ./internal/core/ -run='^$$' -fuzz=FuzzPlace -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run='^$$' -fuzz=FuzzFailRecover -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/core/ -run='^$$' -fuzz=FuzzIndexNaiveEquivalence -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/checkpoint/ -run='^$$' -fuzz=FuzzCheckpointRead -fuzztime=$(FUZZTIME)

# bench records the per-container placement cost (ns/container) at the
# small (384), medium (1,024) and large (10,000 machines, ~100k
# containers) cluster scales as JSON lines in BENCH_search.json, plus
# the medium and large scales with the naive scan as A/B baselines and
# the large scale through the sharded core at 1/2/4/8 shards (the
# scaling curve of DESIGN.md §13; sharded rows report the critical
# path, with host wall-clock in wall_ns).  BENCHREPS repeats each
# deterministic run and keeps the fastest, stripping cold-process
# noise from the recorded figures.
BENCHREPS ?= 5
bench:
	rm -f BENCH_search.json
	$(GO) run ./cmd/aladdin-sim -reps $(BENCHREPS) -machines 384 -factor 50 -bench-out BENCH_search.json -bench-label small
	$(GO) run ./cmd/aladdin-sim -reps $(BENCHREPS) -machines 1024 -factor 50 -bench-out BENCH_search.json -bench-label medium
	$(GO) run ./cmd/aladdin-sim -reps $(BENCHREPS) -machines 1024 -factor 50 -naive-search -bench-out BENCH_search.json -bench-label medium-naive
	$(GO) run ./cmd/aladdin-sim -reps $(BENCHREPS) -machines 10000 -factor 1 -bench-out BENCH_search.json -bench-label large
	$(GO) run ./cmd/aladdin-sim -reps $(BENCHREPS) -machines 10000 -factor 1 -naive-search -bench-out BENCH_search.json -bench-label large-naive
	$(GO) run ./cmd/aladdin-sim -reps $(BENCHREPS) -machines 10000 -factor 1 -shards 1 -bench-out BENCH_search.json -bench-label large-shard1
	$(GO) run ./cmd/aladdin-sim -reps $(BENCHREPS) -machines 10000 -factor 1 -shards 2 -bench-out BENCH_search.json -bench-label large-shard2
	$(GO) run ./cmd/aladdin-sim -reps $(BENCHREPS) -machines 10000 -factor 1 -shards 4 -bench-out BENCH_search.json -bench-label large-shard4
	$(GO) run ./cmd/aladdin-sim -reps $(BENCHREPS) -machines 10000 -factor 1 -shards 8 -bench-out BENCH_search.json -bench-label large-shard8
	@cat BENCH_search.json

# bench-smoke is the CI regression tripwire: re-measure the small
# preset and the sharded 10k-machine preset, and fail if ns/container
# regressed against the committed BENCH_search.json rows.  Small keeps
# the job fast and gets a 25% margin at high repetition; the sharded
# row measures the critical path (serial sections plus slowest shard),
# which is noisier on shared runners, so it runs fewer reps with a 50%
# margin.  The CI job is additionally non-blocking — see
# .github/workflows/ci.yml.
SMOKEREPS ?= 15
SMOKESHARDREPS ?= 3
bench-smoke:
	@rm -f BENCH_smoke.json
	@$(GO) run ./cmd/aladdin-sim -reps $(SMOKEREPS) -machines 384 -factor 50 -bench-out BENCH_smoke.json -bench-label small
	@$(GO) run ./cmd/aladdin-sim -reps $(SMOKESHARDREPS) -machines 10000 -factor 1 -shards 8 -bench-out BENCH_smoke.json -bench-label large-shard8
	@for spec in "small 125" "large-shard8 150"; do \
		set -- $$spec; label=$$1; pct=$$2; \
		base="$$(grep "\"label\":\"$$label\"" BENCH_search.json | sed 's/.*"ns_per_container":\([0-9]*\).*/\1/')"; \
		now="$$(grep "\"label\":\"$$label\"" BENCH_smoke.json | sed 's/.*"ns_per_container":\([0-9]*\).*/\1/')"; \
		if [ -z "$$base" ] || [ -z "$$now" ]; then \
			echo "bench-smoke: missing $$label row (baseline or fresh run)" >&2; exit 1; fi; \
		echo "bench-smoke: $$label ns/container now=$$now baseline=$$base (budget +$$((pct - 100))%)"; \
		if [ "$$now" -gt $$((base * pct / 100)) ]; then \
			echo "bench-smoke: $$label regression vs committed BENCH_search.json" >&2; exit 1; fi; \
	done; \
	rm -f BENCH_smoke.json; \
	echo "bench-smoke: within budget"

# load-smoke drives the multi-tenant HTTP server through the
# concurrent load harness (internal/loadtest) at a small fixed load:
# every response must be 200 or 429 and p99 must stay under a
# deliberately generous tripwire.  It catches gross serving
# regressions (deadlocked batchers, lost replies, stalls), not
# percentage-level slowdowns.  TestCoalescingMergesRequests checks
# that the batcher merges 32 clients' requests into at most one solver
# batch per four requests and logs both paths' throughput and
# latency.  The CI job is additionally non-blocking — see
# .github/workflows/ci.yml.
load-smoke:
	$(GO) test ./internal/loadtest/ -run 'TestLoadSmoke|TestCoalescingMergesRequests' -count=1 -v

# rebalance-soak runs the long-horizon continuous-rescheduling gate
# (DESIGN.md §15): the online simulation with failures, recoveries,
# churn and budgeted rebalancing cycles, with the full invariant
# Auditor after every failure, recovery and cycle.  SOAKFACTOR is the
# trace scale divisor — smaller means more applications and a longer
# horizon (the in-suite default is 200; CI soaks at 40).
SOAKFACTOR ?= 40
rebalance-soak:
	ALADDIN_SOAK=$(SOAKFACTOR) $(GO) test ./internal/sim/ -run 'TestRunOnlineRebalanceSoak' -count=1 -v
	$(GO) test -race ./internal/core/ -run 'TestShardedConcurrentConsolidateRacingPlace' -count=1

clean:
	rm -f BENCH_search.json BENCH_smoke.json coverage.out
