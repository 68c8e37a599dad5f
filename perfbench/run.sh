#!/usr/bin/env bash
# Builds the benchmark harness and the `nisqc` daemon from source, then runs
# one workload:
#
#   bash perfbench/run.sh --workload table1-week --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default perfbench/target). The
# harness prints its result as one JSON object on the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml \
    -p perfbench -p nisq --bins
exec "$target/release/perfbench" --nisqc "$target/release/nisqc" "$@"
