#!/bin/sh
# bench.sh — regenerate the committed benchmark numbers. Run from the
# repository root.
#
# Writes BENCH_core.json (the compiled-operator harness on a 100k-paper
# synthetic power-law network), BENCH_sweep.json (the parameter-grid
# sweep, eval.SweepAttRank, vs the sequential serial-reference sweep),
# BENCH_service.json (the serving path under
# closed-loop overload: sustained RPS, accepted-latency quantiles and
# shed rates at 1x/2x/4x saturation, graceful-shutdown drain),
# BENCH_cluster.json (a leader plus three WAL-shipping followers on
# loopback: read throughput per replica added, and follower
# crash-recovery bit-equality), BENCH_ingest.json (single-citation
# incremental push re-rank vs a warm full re-rank on the 100k network,
# with reconciliation bit-equality and staleness-bound checks), and then
# runs the go-test microbenchmarks for the per-iteration kernels.
#
# The committed BENCH_core.json and BENCH_sweep.json are generated at
# GOMAXPROCS=1 (single-core kernel merit, no scheduler noise). Each is
# re-run at NumCPU as well — not committed, but printed — so regressions
# in the parallel kernels are visible next to the pinned numbers; see
# DESIGN.md §4 and §11.
set -eu

echo "==> attrank-bench, GOMAXPROCS=1 (100k-paper synthetic network -> BENCH_core.json)"
GOMAXPROCS=1 go run ./cmd/attrank-bench -out BENCH_core.json "$@"

echo "==> attrank-bench, all cores (parallel-kernel scaling check, not committed)"
go run ./cmd/attrank-bench -out /tmp/BENCH_core_ncpu.json "$@"

echo "==> attrank-bench -sweep, GOMAXPROCS=1 (grid sweep -> BENCH_sweep.json)"
GOMAXPROCS=1 go run ./cmd/attrank-bench -sweep -sweep-reps 5 -sweep-out BENCH_sweep.json

echo "==> attrank-bench -sweep, all cores (scaling check, not committed)"
go run ./cmd/attrank-bench -sweep -sweep-out /tmp/BENCH_sweep_ncpu.json

echo "==> attrank-bench -serve (overload harness -> BENCH_service.json)"
go run ./cmd/attrank-bench -serve -serve-out BENCH_service.json

echo "==> attrank-bench -cluster (replicated tier -> BENCH_cluster.json)"
go run ./cmd/attrank-bench -cluster -cluster-out BENCH_cluster.json

echo "==> attrank-bench -ingest, GOMAXPROCS=1 (incremental push vs warm full re-rank -> BENCH_ingest.json)"
GOMAXPROCS=1 go run ./cmd/attrank-bench -ingest -ingest-out BENCH_ingest.json

echo "==> go test -bench (sparse + core kernels + scratch metrics)"
go test -run XXX -bench 'Iteration|Rank100k|Spearman|NDCG' -benchtime 10x -benchmem \
	./internal/sparse/ ./internal/core/ ./internal/metrics/
