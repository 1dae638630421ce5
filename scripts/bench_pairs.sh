#!/usr/bin/env bash
# Alternating-pairs comparison of this tree against another revision, with
# each side running its own benchmark: the rule a performance claim is held
# to (at least nine wins in ten pairs, medians further apart than the
# distance between the other side's quartiles).
#
#   scripts/bench_pairs.sh <rev> [--workload W]... [--pairs N] [-- run.sh args]
#
#   scripts/bench_pairs.sh HEAD~1 --workload l7_saturated
#   scripts/bench_pairs.sh HEAD~1 --workload l7_saturated --workload l7_fastpath -- --trace 1
#
# <rev> is checked out into a temporary `git worktree` (under $TMPDIR),
# removed again on exit. Pair i runs both sides with `--seed i`, and which
# side goes first flips from pair to pair. Without --workload every
# workload runs (minutes per pair). Prints, per workload and metric:
# wins of this tree out of the pairs that did not tie, then the median and
# the inter-quartile distance of each side.
set -euo pipefail

usage() { sed -n '2,17p' "$0" | sed 's/^# \{0,1\}//'; exit 2; }

rev="${1:-}"
[[ -n "$rev" && "$rev" != -* ]] || usage
shift
workloads=()
pairs=10
extra=()
while (($#)); do
  case "$1" in
    --workload) workloads+=("${2:?--workload needs a name}"); shift 2 ;;
    --pairs) pairs="${2:?--pairs needs a count}"; shift 2 ;;
    --) shift; extra=("$@"); break ;;
    *) usage ;;
  esac
done

here="$(cd "$(dirname "$0")/.." && pwd)"
commit="$(git -C "$here" rev-parse --verify "$rev^{commit}")"
work="$(mktemp -d "${TMPDIR:-/tmp}/covenant-pairs.XXXXXX")"
cleanup() {
  git -C "$here" worktree remove --force "$work/other" 2>/dev/null || true
  git -C "$here" worktree prune
  rm -rf "$work"
}
trap cleanup EXIT
git -C "$here" worktree add --quiet --detach "$work/other" "$commit"

# One run of one side; its `workload metric value unit` lines, tagged.
run_side() { # <tag> <dir> <seed> [workload]
  (cd "$2" && CARGO_TARGET_DIR="$2/target" bash benchmark/run.sh \
      ${4:+--workload "$4"} --seed "$3" "${extra[@]}") \
    | awk -v tag="$1" -v pair="$3" 'NF == 4 && $3 + 0 == $3 { print tag, pair, $1, $2, $3, $4 }'
}

# Build both sides first, so that no pair pays for a compile.
for dir in "$work/other" "$here"; do
  (cd "$dir" && CARGO_TARGET_DIR="$dir/target" \
    cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml)
done

for ((i = 1; i <= pairs; i++)); do
  echo "pair $i of $pairs" >&2
  # No workload named: one run of every workload.
  for which in "${workloads[@]:-}"; do
    if ((i % 2)); then
      run_side other "$work/other" "$i" "$which"; run_side this "$here" "$i" "$which"
    else
      run_side this "$here" "$i" "$which"; run_side other "$work/other" "$i" "$which"
    fi
  done
done > "$work/samples"

echo "# this tree against $rev ($commit): $pairs pairs ${workloads[*]} ${extra[*]}"
echo "# workload metric unit better | wins | other: median iqr | this: median iqr"
better_of="$(tr -d ' \n' < "$here/BENCHMARK.json" \
  | grep -o '"name":"[^"]*","unit":"[^"]*","better":"[a-z]*"' \
  | sed 's/"name":"\([^"]*\)".*"better":"\([a-z]*\)"/\1=\2/' | tr '\n' ' ')"
awk -v better_of="$better_of" -v pairs="$pairs" '
  function quantile(v, n, q,    pos, lo) {   # v sorted, 1-based; linear interpolation
    pos = 1 + (n - 1) * q; lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
  }
  function summary(side, key,    n, i, j, x, v) {
    n = count[side, key]
    for (i = 1; i <= n; i++) {   # insertion sort: a handful of samples
      x = value[side, key, i]
      for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
      v[j + 1] = x
    }
    if (n == 0) return "- -"
    return sprintf("%.6g %.6g", quantile(v, n, 0.5), quantile(v, n, 0.75) - quantile(v, n, 0.25))
  }
  BEGIN {
    n = split(better_of, b, " ")
    for (i = 1; i <= n; i++) { split(b[i], kv, "="); better[kv[1]] = kv[2] }
  }
  {
    key = $3 " " $4; unit[key] = $6
    if (!(key in seen)) { seen[key] = 1; order[++keys] = key }
    value[$1, key, ++count[$1, key]] = $5 + 0
    at[$1, key, $2] = $5 + 0; has[$1, key, $2] = 1
  }
  END {
    for (k = 1; k <= keys; k++) {
      key = order[k]; split(key, name, " "); dir = better[name[2]]
      wins = decided = 0
      for (p = 1; p <= pairs; p++) {
        if (!has["this", key, p] || !has["other", key, p]) continue
        d = at["this", key, p] - at["other", key, p]
        if (d == 0) continue
        decided++
        if ((dir == "higher") == (d > 0)) wins++
      }
      printf "%s %s %s | %d/%d | %s | %s\n", key, unit[key], dir, wins, decided, \
        summary("other", key), summary("this", key)
    }
  }' "$work/samples"
