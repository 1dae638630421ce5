#!/usr/bin/env bash
# Tier-1 verification: the one entry point builders run before pushing.
#
#   release build + the benchmark's release build + workspace tests + covenant-lint + spec and scenario
#   gates + clippy -D warnings + `cargo bench --no-run` + cluster_soak +
#   the gate rule on canned samples (scripts/test_bench_gate.sh) + the gate:
#   three quick alternating pairs of every benchmark workload, output checks
#   included, against the parent commit (scripts/bench_pairs.sh).
#
# Usage: scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

# The benchmark is the one consumer of the workspace's scheduler APIs
# outside it; build it now so a broken signature fails here, not minutes
# later at the gate.
echo "==> cargo build --release (benchmark/)"
cargo build --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo test (workspace, includes the root package's tier-1 tests)"
cargo test -q --offline --workspace

echo "==> covenant-lint --deny all (workspace invariants, R1-R3, R5)"
cargo run -q --offline -p covenant-lint -- --deny all

echo "==> covenant check (spec verifier gate over examples/specs)"
COVENANT=target/release/covenant
$COVENANT check examples/specs/valid.json
for bad in examples/specs/v*_*.json; do
  # v3_oversubscribed.json -> its rule id V3 must appear in the output,
  # and with --deny all even warning-severity rules must fail the check.
  rule="V$(basename "$bad" | sed 's/^v\([0-9]*\).*/\1/')"
  if out=$($COVENANT check "$bad" --deny all 2>&1); then
    echo "verifier gate: $bad unexpectedly passed"; exit 1
  fi
  if ! grep -q "\[$rule\]" <<<"$out"; then
    echo "verifier gate: $bad did not report $rule:"; echo "$out"; exit 1
  fi
done

echo "==> scenario library gate (check --deny all + replay determinism)"
for scenario in examples/scenarios/*.json; do
  $COVENANT check "$scenario" --deny all
done
det_a="$(mktemp)"; det_b="$(mktemp)"
trap 'rm -f "$det_a" "$det_b"' EXIT
$COVENANT sim examples/scenarios/flash_crowd.json --json > "$det_a"
$COVENANT sim examples/scenarios/flash_crowd.json --json > "$det_b"
if ! cmp -s "$det_a" "$det_b"; then
  echo "determinism gate: flash_crowd.json --json output differs between replays"; exit 1
fi

echo "==> cargo clippy -D warnings (workspace)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo bench --no-run (benchmarks must compile)"
cargo bench --no-run --offline -p covenant-bench

echo "==> cluster soak (multi-process combining tree + /metrics scrape)"
cargo run -q --offline --release -p covenant-bench --bin cluster_soak -- 3

echo "==> bench gate rule (scripts/bench_summary.sh on canned samples)"
scripts/test_bench_gate.sh

if [[ -n "$(git status --porcelain)" ]]; then parent=HEAD; else parent=HEAD~1; fi
echo "==> benchmark gate (3 quick pairs of every workload against $parent)"
scripts/bench_pairs.sh "$parent" --pairs 3 -- --quick

echo "tier-1: OK"
