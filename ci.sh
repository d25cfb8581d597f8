#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the full test suite.
# Run from the repo root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# Release build of every default member (the root package and every crate
# under crates/), the same set a bare `cargo build` / `cargo test` covers.
echo "== cargo build --release (root package + every crate) =="
cargo build --release --offline -q

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== zoomer-lint (panic-freedom + cross-file concurrency gate; errors and warnings both fail) =="
# Both phases run here: per-file rules (L001-L005) and the cross-file
# concurrency/contract pass (L006-L009, metrics manifest, baseline). The
# machine-readable report is kept as a CI artifact; human lines go to
# stderr so the log still shows any findings.
cargo run --release --offline -q -p zoomer-lint -- --json . > lint-report.json
# Warnings fail CI as well: a stale manifest or baseline entry means a
# metric or suppression outlived the code it described.
if ! grep -Eq '"warnings": *0([^0-9]|$)' lint-report.json; then
    echo "zoomer-lint reported warnings (see lint-report.json)" >&2
    exit 1
fi

echo "== cargo clippy (workspace, all targets, deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test (workspace, ci profile: overflow-checks + debug assertions) =="
# Every suite is a workspace test, so this one run covers them all; do not
# re-run a filtered subset of them under the same profile.
cargo test --workspace --offline -q --profile ci

echo "== zoomer-serve loopback smoke (spawn, scatter a batch over TCP, assert merged top-k) =="
cargo build --release --offline -q --bin zoomer-serve
./target/release/zoomer-serve --smoke --users 60 --items 120 --sessions 300 --shards 4
# One shard is the all-inline tier: no worker thread, every batch ranked on
# its connection's own thread.
./target/release/zoomer-serve --smoke --users 60 --items 120 --sessions 300 --shards 1

echo "== kernel bench (smoke mode: every kernel executes, baseline file untouched) =="
ZOOMER_BENCH_SCALE=smoke cargo bench --offline -q -p zoomer-bench --bench kernels

echo "== observability overhead bench (smoke mode: gating exercised, budget advisory) =="
ZOOMER_BENCH_SCALE=smoke cargo bench --offline -q -p zoomer-bench --bench obs_overhead

echo "== backends bench (smoke mode: recall/latency harness executes, baseline untouched) =="
ZOOMER_BENCH_SCALE=smoke cargo bench --offline -q -p zoomer-bench --bench backends

echo "== training figure harnesses (smoke mode: every preset, the ablation flags and Fig 13's coupling coefficients through the level-major encoder) =="
ZOOMER_BENCH_SCALE=smoke cargo bench --offline -q -p zoomer-bench --bench table3_taobao
ZOOMER_BENCH_SCALE=smoke cargo bench --offline -q -p zoomer-bench --bench fig8_ablation
ZOOMER_BENCH_SCALE=smoke cargo bench --offline -q -p zoomer-bench --bench fig13_heatmaps

echo "== benchmark package (own workspace: links the serving API, smoke-runs every workload, checks BENCHMARK.json names) =="
# `bench/` is outside this workspace, so nothing above compiles it; an API
# break there would otherwise surface only in the benchmark run itself.
bench/check.sh

echo "CI OK"
