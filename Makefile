GO ?= go

.PHONY: build test vet race race-concurrent race-server ssp-differential fuzz lint rasql-lint allocs metrics-smoke serve-smoke bench bench-pair golangci ci

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/fixpoint/... ./internal/cluster/... .

# Differential proof of the concurrency model (DESIGN.md §10): one shared
# engine, many goroutines, results must match a sequential oracle.
race-concurrent:
	$(GO) test -race -shuffle=on -run TestConcurrent .

# Differential proof of the serving layer (DESIGN.md §14): all example
# queries through a real HTTP server — fresh and shared sessions, 8
# concurrent HTTP clients — must match the in-process oracle, and the
# plan cache must hold its counter invariant under DDL churn, all under
# the race detector.
race-server:
	$(GO) test -race -shuffle=on -run 'TestServerDifferential|TestServerConcurrentClients' .
	$(GO) test -race -shuffle=on -run TestPlanCacheConcurrentStress ./internal/server/

# Differential proof of the barrier-relaxed modes (DESIGN.md §11): every
# example query under ssp:1/ssp:4/async must match the BSP oracle, with
# and without chaos, under the race detector.
ssp-differential:
	$(GO) test -race -shuffle=on -run TestRelaxed . ./internal/fixpoint/ ./internal/cluster/

# Short smoke of every fuzz target (wire format, row keys, SQL parser);
# crashers land in testdata/fuzz/ — check them in as regression seeds.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRowsAppend$$' -fuzztime 30s ./internal/types/
	$(GO) test -run '^$$' -fuzz '^FuzzRowKey$$' -fuzztime 30s ./internal/types/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/sql/parser/

# Engine-invariant checkers (internal/analysis): standalone whole-program
# pass, then the go vet driver so _test.go files are covered too.
rasql-lint:
	$(GO) build -o bin/rasql-lint ./cmd/rasql-lint
	./bin/rasql-lint ./...
	$(GO) vet -vettool=$$PWD/bin/rasql-lint ./...

# Allocation-contract drift check (DESIGN.md §12): every //rasql:noalloc
# annotation must be dynamically pinned by an //rasql:allocpin comment on
# the AllocsPerRun test or -benchmem benchmark that exercises it (and no
# pin may outlive its annotation), then the zero-alloc pins themselves run.
allocs:
	$(GO) build -o bin/rasql-lint ./cmd/rasql-lint
	./bin/rasql-lint -allocdrift ./...
	$(GO) test -run ZeroAllocs ./internal/types/ ./internal/cluster/ ./internal/trace/ ./internal/obs/

# Serving-metrics smoke (DESIGN.md §13): closed-loop concurrent clients on
# one shared engine, the Prometheus exposition round-tripped through the
# strict in-repo parser, and throughput/percentile columns asserted in the
# machine-readable bench output. Requires jq.
metrics-smoke:
	$(GO) build -o bin/rasql ./cmd/rasql
	$(GO) build -o bin/rasql-bench ./cmd/rasql-bench
	./bin/rasql-bench -quick -run fig5,fig8 -clients 4 -duration 2s \
		-json bench-metrics.json -metrics-out metrics.prom -quiet
	./bin/rasql prom-verify metrics.prom
	jq -e 'length == 2 and all(.[]; .qps > 0 and .p50_nanos > 0 and .p99_nanos >= .p50_nanos and .queries > 0)' bench-metrics.json

# Serving lifecycle smoke (DESIGN.md §14): start rasqld on the demo
# graph, run two HTTP queries (the second must hit the plan cache),
# scrape /metrics, SIGTERM, and require a clean drain (exit 0); the
# final exposition written by -metrics-out must survive prom-verify.
# Every command of the recipe is an assertion (set -e), and the EXIT trap
# stops rasqld and waits for it if one fails before the SIGTERM (its `|| :`
# keeps a clean run's exit status 0 once rasqld is already gone).
serve-smoke:
	$(GO) build -o bin/rasql ./cmd/rasql
	$(GO) build -o bin/rasqld ./cmd/rasqld
	set -e; \
	./bin/rasqld -demo -listen 127.0.0.1:18123 -metrics-out rasqld-metrics.prom & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null && wait $$pid || :' EXIT; \
	ok=0; for i in $$(seq 1 50); do \
		if curl -sf 127.0.0.1:18123/healthz >/dev/null 2>&1; then ok=1; break; fi; sleep 0.1; \
	done; test $$ok -eq 1; \
	curl -sf 127.0.0.1:18123/v1/query -d '{"sql":"SELECT count(*) FROM edge"}' | grep -q '"row_count":1'; \
	curl -sf 127.0.0.1:18123/v1/query -d '{"sql":"select COUNT(*) from EDGE"}' | grep -q '"cached":true'; \
	curl -sf 127.0.0.1:18123/metrics | grep -q '^rasql_plan_cache_hits_total 1$$'; \
	curl -sf 127.0.0.1:18123/readyz >/dev/null; \
	kill -TERM $$pid; \
	wait $$pid
	./bin/rasql prom-verify rasqld-metrics.prom

# The repository's benchmark (benchmarks/README.md), one workload the way the
# pipeline runs it: make bench WORKLOAD=cc-rmat SEED=2. TRACE=1 reports the
# per-layer metrics instead of the end-to-end ones.
WORKLOAD ?= tc-grid
SEED ?= 1
TRACE ?= 0
bench:
	bash benchmarks/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 20 --trace $(TRACE)

# Paired runs, for a claim smaller than the run-to-run spread (under 10%):
# PAIRS pairs of PARENT (a git ref, exported with git archive; required) and
# this checkout, alternating which side runs first, then each side's quartiles
# per end-to-end metric. A run that fails, answers wrongly or has a failed
# request stops the recipe. A gain counts when the change wins nine pairs in
# ten and the medians differ by more than the parent's q1..q3. Requires jq.
PAIRS ?= 10
bench-pair:
	@test -n "$(PARENT)" || { echo "bench-pair: set PARENT=<git ref of the parent commit>" >&2; exit 2; }
	rm -rf .bench_build/pair && mkdir -p .bench_build/pair/parent
	git archive $(PARENT) | tar -x -C .bench_build/pair/parent
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			if [ $$side = parent ]; then dir=.bench_build/pair/parent; else dir=.; fi; \
			out=.bench_build/pair/$$side.$$i; \
			bash $$dir/benchmarks/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 20 --trace 0 > $$out.out 2> $$out.err \
				|| { tail -n 20 $$out.err >&2; echo "bench-pair: $$side run $$i failed" >&2; exit 1; }; \
			tail -n 1 $$out.out > $$out.json; \
			jq -c --arg run "$$side $$i" '{run: $$run, correct, failed} + (.metrics | map_values(.value))' $$out.json || exit 1; \
			jq -e '.correct == true and .failed == 0' $$out.json >/dev/null \
				|| { echo "bench-pair: $$side run $$i is incorrect or has failed requests" >&2; exit 1; }; \
		done; \
	done
	for side in parent change; do \
		jq -s -r --arg side $$side '[.[].metrics | map_values(.value)] | (.[0] | keys[]) as $$m | [.[][$$m]] | sort | "\($$side) \($$m): q1 \(.[(length - 1) / 4 | floor]) median \(.[(length - 1) / 2 | floor]) q3 \(.[(length - 1) * 3 / 4 | floor])"' .bench_build/pair/$$side.*.json || exit 1; \
	done

# Requires golangci-lint (https://golangci-lint.run); CI installs it via
# the golangci-lint-action.
golangci:
	golangci-lint run

lint: rasql-lint

ci: build vet test race race-concurrent race-server ssp-differential rasql-lint allocs metrics-smoke serve-smoke
