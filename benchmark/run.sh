#!/usr/bin/env bash
# Build the benchmark offline, then run it. Usage (from the repo root):
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one workload (the driver's form)
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--repeat R] [--out F]   every workload -> benchmark/out/results.json
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --smoke
#
# The package has its own [workspace]: the root manifest and lockfile are
# not touched. It needs the crates under ../crates, so in a directory that
# holds only BENCHMARK.json and benchmark/ the build fails and this script
# exits nonzero without printing a result.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml >&2
exec "$target/release/caf-benchmark" "$@"
