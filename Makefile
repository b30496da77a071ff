GO ?= go

.PHONY: build test vet race race-concurrent race-server ssp-differential fuzz lint allocs kernels serve-smoke bench bench-pair no-strays golangci ci

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

vet:
	$(GO) vet ./...

# The race detector over every package with shared mutable state: it is what
# holds the mutex discipline (DESIGN.md §10).
race:
	$(GO) test -race ./internal/fixpoint/... ./internal/cluster/... ./internal/obs/... ./internal/trace/... ./internal/sql/catalog/... ./internal/server/... .

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
# and without chaos, under the race detector. The final-stage differential
# (DESIGN.md §6) rides along: every example program and final-query variant,
# at 1/2/5/9 partitions, in every mode and under faults, must give the
# collect route's rows in order and the local engine's as a set.
ssp-differential:
	$(GO) test -race -shuffle=on -run 'TestRelaxed|TestFinalStage' . ./internal/fixpoint/ ./internal/cluster/

# Short smoke of every fuzz target (wire format, row keys, the join table,
# SQL parser, the streamed JSON response); crashers land in testdata/fuzz/ —
# check them in as regression seeds.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeRowsAppend$$' -fuzztime 30s ./internal/types/
	$(GO) test -run '^$$' -fuzz '^FuzzRowKey$$' -fuzztime 30s ./internal/types/
	$(GO) test -run '^$$' -fuzz '^FuzzRowTable$$' -fuzztime 30s ./internal/cluster/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/sql/parser/
	$(GO) test -run '^$$' -fuzz '^FuzzEncodeResponse$$' -fuzztime 30s ./internal/server/

# Source rules (DESIGN.md §12): no host clock or global math/rand in the
# deterministic packages, no unsafe, no sync.Pool, every file gofmt-clean,
# and no exported function under internal/ that only tests call.
lint:
	$(GO) test -run 'TestSourceRules|TestNoTestOnlyCode' .

# Allocation contracts (DESIGN.md §12): the zero-alloc pins of the hot path,
# the per-execution allocation budgets and the GC-independence of a warm
# execution.
allocs:
	$(GO) test -run 'ZeroAllocs|AllocBudget|IgnoresGC' . ./internal/fixpoint/ ./internal/types/ ./internal/cluster/ ./internal/trace/ ./internal/obs/

# The key and group-table kernels (DESIGN.md §6): the key hash, set dedup,
# aggregate merge, join-table probe and the group table's long tail, then
# one warm prepared execution of the cc-rmat and tc-grid statements on one
# CPU (the emit, the fold and the merge together), of a 185-group GROUP BY
# (exec.Grouping's fold), of a point self-join (exec's join through a
# cluster.RowTable) and one served rows-out request in process (the scan
# streamed into the JSON body), five runs each, for comparing medians
# before and after a change to them.
kernels:
	$(GO) test -run '^$$' -bench 'HashRowKey|SetRDDDedup|AggRDDMerge|RowTableProbe|CombinerLongTail' -benchmem -count 5 ./internal/types/ ./internal/cluster/
	$(GO) test -run '^$$' -bench '^Benchmark(Prepared(CCRMAT|TCGrid|GroupBy|Join)|ServedRowsOut)$$' -benchmem -count 5 -cpu 1 .

# Serving lifecycle smoke (DESIGN.md §14): start rasqld on the demo
# graph, run two HTTP queries (the second must hit the plan cache),
# scrape /metrics, SIGTERM, and require a clean drain (exit 0); the
# final exposition written by -metrics-out must pass the strict parser
# (TestExpositionFile).
# Every command of the recipe is an assertion (set -e), and the EXIT trap
# stops rasqld and waits for it if one fails before the SIGTERM (its `|| :`
# keeps a clean run's exit status 0 once rasqld is already gone).
serve-smoke:
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
	RASQL_PROM_FILE=$(CURDIR)/rasqld-metrics.prom $(GO) test -count=1 -run TestExpositionFile ./internal/obs/

# The repository's benchmark (benchmarks/README.md), one workload the way the
# pipeline runs it: make bench WORKLOAD=cc-rmat SEED=2. TRACE=1 reports the
# per-layer metrics instead of the end-to-end ones. Both bench recipes end
# with no-strays, so a server or driver the run left behind fails it.
WORKLOAD ?= tc-grid
SEED ?= 1
TRACE ?= 0
bench:
	bash benchmarks/run.sh --workload $(WORKLOAD) --seed $(SEED) --seconds 20 --trace $(TRACE)
	@$(MAKE) --no-print-directory no-strays

# Paired runs, for a claim smaller than the run-to-run spread (under 10%):
# PAIRS pairs of PARENT (a git ref, exported with git archive; required) and
# this checkout, alternating which side runs first, then each side's quartiles
# per end-to-end metric. A run that fails, answers wrongly or has a failed
# request stops the recipe. A gain counts when the change wins nine pairs in
# ten and the medians differ by more than the parent's q1..q3. Requires jq.
PAIRS ?= 3
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
	@$(MAKE) --no-print-directory no-strays

# Hand-off check: fails if a server, benchmark driver, test binary (any
# *.test, the re-exec'd rasqld child included), go command or CLI is still
# running. pgrep -x matches the process name exactly, as a regular
# expression over names the kernel truncates to 15 characters (pgrep refuses
# longer patterns); pgrep -f would match the shell running this recipe.
no-strays:
	@for p in rasqld rasqlbench '.*\.test' go rasql rasql-bench; do \
		if pgrep -x "$$p"; then echo "no-strays: $$p is still running" >&2; exit 1; fi; \
	done

# Requires golangci-lint (https://golangci-lint.run); CI installs it via
# the golangci-lint-action.
golangci:
	golangci-lint run

ci: build vet test race race-concurrent race-server ssp-differential allocs serve-smoke
