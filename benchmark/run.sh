#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh                      every workload, each in a fresh process
#   benchmark/run.sh --trace              the per-layer (traced) run of every workload
#   benchmark/run.sh --workload tick_small --seed 7 --seconds 18 --trace 0
#   benchmark/run.sh --quick              ~10 s smoke of every workload
#   benchmark/run.sh --sets 5             five sets, per-metric spread against its bound
#
# Builds into $CARGO_TARGET_DIR, or the repository's shared target/ when unset.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/covenant-benchmark" "$@"
