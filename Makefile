GO ?= go

.PHONY: check vet build test race race-core bench-llap bench-join bench-cbo bench-concurrency bench-acid bench-ops bench-prune faults difftest obs

# check is the tier-1 gate plus the targeted race pass: everything a PR
# must pass. `make race` remains the full-repo race sweep. The bench steps
# build and run the nil-tracer, vectorized map-join and vectorized
# group-by benchmarks once (smokes that the disabled-tracing fast path, the
# pooled join pipeline and the typed hash aggregation keep compiling and
# running; no timing assertion — compare ns/op manually with
# `go test -bench . ./internal/obs` / `./internal/vexec`). TestDeterminism
# runs three times (same seed, same verdicts and execution counts), and the
# dfs lock-order regression runs under -race. The last step is a tiny E14
# run: a mixed interactive+batch client population through the
# multi-tenant server, checking concurrent results stay byte-identical to
# serial.
check: vet build test race-core
	$(GO) test -run=NONE -bench=BenchmarkNilTracer -benchtime=1x ./internal/obs
	$(GO) test -run=NONE -bench=BenchmarkVectorizedMapJoin -benchtime=1x ./internal/vexec
	$(GO) test -run=NONE -bench=BenchmarkVectorizedHashAgg -benchtime=1x ./internal/vexec
	$(GO) test -run=TestDeterminism -count=3 ./internal/qcheck
	$(GO) test -race -run=TestWriteListLockOrder -count=1 ./internal/dfs
	$(GO) test -run=TestConcurrencyShape -count=1 ./internal/bench
	$(GO) test -run=TestACIDShape -count=1 ./internal/bench
	$(GO) test -run=TestCBOShape -count=1 ./internal/bench
	$(GO) test -run=TestOpsShape -count=1 ./internal/bench
	$(GO) test -run=TestAdminPlane -count=1 ./internal/server
	$(GO) test -run=TestSysTablesAllEngines -count=1 ./internal/core
	$(GO) test -run=TestPruneShape -count=1 ./internal/core

# race-core is the fast race pass over the correctness-critical packages
# (the differential harness, the engine layers it drives, the multi-tenant
# server dispatching them in parallel, the transaction manager whose
# commits and compactions race those queries, the vector batch/pool
# primitives shared across concurrent tasks, the observability
# counters those layers mutate while queries run, the statistics
# catalog that write commits and query planning update concurrently, the
# physical operators bucket joins route splits through, and the optimizer
# passes that prune the layout those splits come from).
race-core:
	$(GO) test -race ./internal/qcheck ./internal/core ./internal/server ./internal/txn ./internal/mapred ./internal/vexec ./internal/vector ./internal/obs ./internal/dfs ./internal/llap ./internal/stats ./internal/sysdb ./internal/exec ./internal/optimizer

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-llap reproduces the E9 cold-vs-warm numbers from the command line.
bench-llap:
	$(GO) run ./cmd/benchrunner -exp llap

# bench-join reproduces E13: TPC-DS q27 star join under the row engine,
# the vectorized probe, and LLAP with a warm build cache.
bench-join:
	$(GO) run ./cmd/benchrunner -exp join

# bench-cbo reproduces E16: the skewed star join under the heuristic
# planner vs cost-based ordering from ORC catalog statistics, with the
# per-operator estimate-vs-actual row error.
bench-cbo:
	$(GO) run ./cmd/benchrunner -exp cbo

# bench-concurrency reproduces E14: mixed interactive+batch clients through
# the multi-tenant server, sweeping client counts, with the
# preemption-ablation pair at the top level.
bench-concurrency:
	$(GO) run ./cmd/benchrunner -exp concurrency

# bench-acid reproduces E15: streaming-ingest throughput into an ACID
# table, read latency while background compaction rewrites it, and the
# with/without-compaction ablation.
bench-acid:
	$(GO) run ./cmd/benchrunner -exp acid

# bench-ops reproduces E17: the E14 workload with the observability plane
# off vs on (query history + sampling + slow capture + a live Prometheus
# scraper over loopback HTTP), reporting the throughput overhead.
bench-ops:
	$(GO) run ./cmd/benchrunner -exp ops

# bench-prune reproduces E18: partition pruning, hash bucketing and
# HAIL-style replica-divergent indexing — bytes read with the layout
# optimizations off vs on, shuffle bytes across join strategies, and
# replica-routing hit rates with and without a lost replica.
bench-prune:
	$(GO) run ./cmd/benchrunner -exp prune

# faults runs the E10 fault matrix: seeded task crashes, read faults, a
# corrupt block, stragglers and cache faults on all three engines.
faults:
	$(GO) run ./cmd/benchrunner -exp faults

# difftest runs the E11 differential query fuzzer: 500 seeded queries
# across the full engine x format x pushdown x faults matrix; exits
# nonzero on any disagreement and prints shrunk repros.
difftest:
	$(GO) run ./cmd/benchrunner -exp diff -diff-seed 1 -diff-queries 500

# obs runs the E12 observability walkthrough: cold/warm/faulted TPC-H q6
# with per-operator profiles, a unified-registry diff, and a Chrome
# trace_event file (open trace.json in chrome://tracing or Perfetto).
obs:
	$(GO) run ./cmd/benchrunner -exp obs -trace trace.json
