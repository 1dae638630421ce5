#!/usr/bin/env bash
# The gate rule of scripts/bench_summary.sh on four canned sample files:
# only "lost every decided pair AND median past the bound" may fail.
#
#   scripts/test_bench_gate.sh
set -euo pipefail
cd "$(dirname "$0")/.."

work="$(mktemp -d "${TMPDIR:-/tmp}/covenant-gate-test.XXXXXX")"
trap 'rm -rf "$work"' EXIT

# Samples of one tick_small metric: <metric> <unit> then other/this values, pair by pair.
metric() {
  local name="$1" unit="$2" pair=0
  shift 2
  while (($#)); do
    pair=$((pair + 1))
    echo "other $pair tick_small $name $1 $unit"
    echo "this $pair tick_small $name $2 $unit"
    shift 2
  done
}

# <name> <expected exit status> <text the output must contain>...; samples on stdin.
expect() {
  local name="$1" want="$2" got=0 out
  shift 2
  cat > "$work/$name"
  out="$(scripts/bench_summary.sh "$work/$name")" || got=$?
  if [[ "$got" != "$want" ]]; then
    echo "gate test $name: exit $got, expected $want"; echo "$out"; exit 1
  fi
  for text in "$@"; do
    if ! grep -qF -- "$text" <<<"$out"; then
      echo "gate test $name: output lacks '$text'"; echo "$out"; exit 1
    fi
  done
  echo "gate test $name: exit $got as expected"
}

# op_p50_us (lower is better, bound 0.25) up by 40 %, share_ratio_min
# (higher is better, bound 0.1) down by 20 %, in every pair.
{
  metric op_p50_us us 100 140 102 141 98 139
  metric share_ratio_min ratio 0.99 0.79 0.98 0.78 0.99 0.80
} | expect lost_every_pair_past_bound 1 \
  "# gate: FAIL" "tick_small op_p50_us lost 3/3" "tick_small share_ratio_min lost 3/3"

# 10 % worse in every pair is inside the bound; op_p90_us is a per-layer
# metric and has no bound to pass; setup_s is not gated.
{
  metric op_p50_us us 100 110 102 111 98 109
  metric op_p90_us us 100 300 100 310 100 290
  metric setup_s s 0.0001 0.0002 0.0001 0.0002 0.0001 0.0002
} | expect lost_every_pair_inside_bound 0 "# gate: OK" "tick_small op_p50_us us lower | 0/3"

# Median 40 % worse, but one pair of three was won.
metric op_p50_us us 100 140 150 149 98 141 \
  | expect split_pairs_past_bound 0 "# gate: OK" "tick_small op_p50_us us lower | 1/3"

metric peak_rss_mb MB 4.25 4.25 4.25 4.25 4.25 4.25 \
  | expect all_ties 0 "# gate: OK" "tick_small peak_rss_mb MB lower | 0/0"

echo "bench gate rule: OK"
