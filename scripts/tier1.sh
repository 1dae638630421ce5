#!/usr/bin/env bash
# Tier-1 verification: the one entry point builders run before pushing.
#
#   build (release) + full test suite + covenant-lint + clippy -D warnings
#   across the whole workspace.
#
# Usage: scripts/tier1.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --offline

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
$COVENANT sim examples/scenarios/flash_crowd.json --json > /tmp/covenant_det_a.json
$COVENANT sim examples/scenarios/flash_crowd.json --json > /tmp/covenant_det_b.json
if ! cmp -s /tmp/covenant_det_a.json /tmp/covenant_det_b.json; then
  echo "determinism gate: flash_crowd.json --json output differs between replays"; exit 1
fi
rm -f /tmp/covenant_det_a.json /tmp/covenant_det_b.json

echo "==> cargo clippy -D warnings (workspace)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> cargo bench --no-run (benchmarks must compile)"
cargo bench --no-run --offline -p covenant-bench

echo "==> sim smoke (release engine throughput + heap bound)"
cargo run -q --offline --release -p covenant-bench --bin sim_smoke

echo "==> net smoke (shared-link scenario: replay determinism + bounded heap)"
cargo run -q --offline --release -p covenant-bench --bin net_smoke

echo "==> live smoke (loopback L7 + L4 control plane end-to-end)"
cargo run -q --offline --release -p covenant-bench --bin live_smoke

echo "==> cluster soak (multi-process combining tree + /metrics scrape)"
cargo run -q --offline --release -p covenant-bench --bin cluster_soak -- 3

echo "==> tree bench smoke (wire frame economy: 2(n-1) frames per round)"
cargo run -q --offline --release -p covenant-bench --bin tree_bench -- --quick

echo "==> lp smoke (warm-started revised simplex inside the window budget)"
cargo run -q --offline --release -p covenant-bench --bin lp_smoke

echo "==> live throughput smoke (sharded epoll reactor admissions/s floor)"
cargo run -q --offline --release -p covenant-bench --bin live_throughput

echo "tier-1: OK"
