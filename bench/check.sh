#!/usr/bin/env bash
# Smoke-run every workload on the tiny graph (1 s of measurement each,
# untraced and traced) and fail when a run fails its output check, or when
# the workload and metric names the benchmark prints and the names in
# BENCHMARK.json differ in either direction, or a name breaks [A-Za-z0-9_.-]+.
# Ready to be called from ci.sh.
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --manifest-path bench/Cargo.toml -- \
    smoke --check BENCHMARK.json
