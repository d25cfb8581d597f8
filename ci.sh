#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the full test suite.
# Run from the repo root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release (matches the tier-1 verify command) =="
cargo build --release --offline -q

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== zoomer-lint (panic-freedom + cross-file concurrency gate, hard failure) =="
# Both phases run here: per-file rules (L001-L005) and the cross-file
# concurrency/contract pass (L006-L009, metrics manifest, baseline). The
# machine-readable report is kept as a CI artifact; human lines go to
# stderr so the log still shows any findings.
cargo run --release --offline -q -p zoomer-lint -- --json . > lint-report.json

echo "== cargo clippy (workspace, all targets, deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test (workspace, ci profile: overflow-checks + debug assertions) =="
cargo test --workspace --offline -q --profile ci

echo "== fault-injection suite (overload, degraded modes, injected panics) =="
cargo test --offline -q -p zoomer-serving --test fault_injection --profile ci

echo "== backend parity suite (IVF bit-identity, three-backend equivalence) =="
cargo test --offline -q -p zoomer-serving --test backend_parity --profile ci

echo "== snapshot round-trip suite (v1 + zero-copy v2, corruption rejection) =="
cargo test --offline -q -p zoomer-graph --profile ci snapshot

echo "== quantized retrieval suite (int8 kernels + rerank recall parity) =="
cargo test --offline -q -p zoomer-tensor --profile ci quant
cargo test --offline -q -p zoomer-serving --profile ci quantized

echo "== wire protocol suite (header/batch round-trips, malformed-frame rejection) =="
cargo test --offline -q -p zoomer-serving --test wire_roundtrip --profile ci

echo "== sharded equivalence suite (N=1 bit-identity, merge recovery, reply loss) =="
cargo test --offline -q -p zoomer-serving --test sharded_equivalence --profile ci

echo "== front door suite (TCP round-trip, tenant fairness, connection cap) =="
cargo test --offline -q -p zoomer-serving --test front_door --profile ci

echo "== brownout ladder suite (rung domination proptest, per-rung counters) =="
cargo test --offline -q -p zoomer-serving --test brownout_ladder --profile ci

echo "== DOI cache suite (tiered eviction, adversarial scans, shed-refresh retry) =="
cargo test --offline -q -p zoomer-serving --profile ci cache

echo "== zoomer-serve loopback smoke (spawn, scatter a batch over TCP, assert merged top-k) =="
cargo build --release --offline -q --bin zoomer-serve
./target/release/zoomer-serve --smoke --users 60 --items 120 --sessions 300 --shards 4

echo "== kernel bench (smoke mode: every kernel executes, baseline file untouched) =="
ZOOMER_BENCH_SCALE=smoke cargo bench --offline -q -p zoomer-bench --bench kernels

echo "== observability overhead bench (smoke mode: gating exercised, budget advisory) =="
ZOOMER_BENCH_SCALE=smoke cargo bench --offline -q -p zoomer-bench --bench obs_overhead

echo "== backends bench (smoke mode: recall/latency harness executes, baseline untouched) =="
ZOOMER_BENCH_SCALE=smoke cargo bench --offline -q -p zoomer-bench --bench backends

echo "== benchmark package (own workspace: links the serving API, smoke-runs every workload, checks BENCHMARK.json names) =="
# `bench/` is outside this workspace, so nothing above compiles it; an API
# break there would otherwise surface only in the benchmark run itself.
bench/check.sh

echo "CI OK"
