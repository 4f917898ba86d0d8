#!/usr/bin/env bash
# The benchmark's single command: builds the benchmark package from source
# (offline, release), then runs it.
#
#   benchmark/run.sh                              every workload, untraced then traced
#   benchmark/run.sh --workload W --seed N        one workload, both passes
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                 one run; last stdout line is the result object
#   benchmark/run.sh --repeat N --out DIR         N rounds into DIR/result.json (A/A spread)
#   benchmark/run.sh --compare A.json B.json      per (metric, workload) verdicts
#
# Run it from the repo root. Build output goes to stderr so the result object
# stays the last line of stdout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
started=$(date +%s.%N)
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2
# Compile time depends on cache state: printed as build_s, outside the metric set.
HORSE_BENCH_BUILD_S=$(echo "$(date +%s.%N) $started" | awk '{printf "%.3f", $1 - $2}')
export HORSE_BENCH_BUILD_S
exec "$target/release/horse-benchmark" "$@"
