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
# <rev>'s committed files are unpacked (`git archive`) under $TMPDIR and
# removed again on exit. Pair i runs both sides with `--seed i`, and which
# side goes first flips from pair to pair. Without --workload every
# workload runs (minutes per pair; seconds with `-- --quick`). A run whose
# output checks fail ends the comparison. Prints the table and the gate
# verdict of scripts/bench_summary.sh, whose exit status is this one's.
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
trap 'rm -rf "$work"' EXIT
mkdir "$work/other"
git -C "$here" archive "$commit" | tar -x -C "$work/other"

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
"$here/scripts/bench_summary.sh" "$work/samples"
