#!/usr/bin/env bash
# The repo benchmark's one command: builds the harness, then runs it.
#
#   benchmark/run.sh [--seed N]                  every workload, untraced then traced
#   benchmark/run.sh --repeat-check [--seed N]   two untraced sets on one build, compared
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run
#
# Everything it reads and writes is inside the checkout: the build goes to
# $CARGO_TARGET_DIR (default benchmark/target), records and span files to
# benchmark/out.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

export SA_BENCH_OUT="benchmark/out"
export SA_BENCH_RUSTC="$(rustc -V 2>/dev/null || echo unknown)"
export SA_BENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$target/release/sa-benchmark" "$@"
