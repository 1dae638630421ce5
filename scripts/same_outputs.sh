#!/usr/bin/env bash
# Behaviour check for refactors: this tree's `covenant` must print the same
# bytes as another revision's on every library scenario, every benchmark
# workload scenario, every verifier example and the paper figures.
#
#   scripts/same_outputs.sh <rev>
#
#   scripts/same_outputs.sh HEAD~1
#
# <rev>'s committed files are unpacked (`git archive`) under $TMPDIR, built
# there, and removed again on exit. Both binaries run
# `covenant sim <f> --json` for every examples/scenarios/*.json and
# benchmark/workloads/*.json of this tree (the latter only read),
# `covenant levels <f>` (the entitlement table) for every
# examples/scenarios/*.json, `covenant check --deny all <f>` (its
# diagnostics and its exit status) for every examples/specs/*.json and
# examples/scenarios/*.json, then `covenant figures`; the outputs are
# compared with `cmp`. Every comparison runs; each one that differs is
# named with the head of its diff. Exits 0 when all are identical, 1 when
# any differs.
set -euo pipefail

usage() { sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'; exit 2; }

rev="${1:-}"
[[ -n "$rev" && "$rev" != -* && $# -eq 1 ]] || usage

here="$(cd "$(dirname "$0")/.." && pwd)"
commit="$(git -C "$here" rev-parse --verify "$rev^{commit}")"
work="$(mktemp -d "${TMPDIR:-/tmp}/covenant-same.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/other"
git -C "$here" archive "$commit" | tar -x -C "$work/other"

for dir in "$work/other" "$here"; do
  (cd "$dir" && cargo build --release --offline --quiet --bin covenant)
done
other="$work/other/target/release/covenant"
this="$here/target/release/covenant"

differing=0
same() { # <name> <args...>: stdout, stderr and exit status must match
  local name="$1"; shift
  local status
  status=0; "$other" "$@" > "$work/a" 2>&1 || status=$?
  echo "exit $status" >> "$work/a"
  status=0; "$this" "$@" > "$work/b" 2>&1 || status=$?
  echo "exit $status" >> "$work/b"
  if cmp -s "$work/a" "$work/b"; then
    echo "same: $name"
  else
    echo "differs from $rev: $name"
    diff "$work/a" "$work/b" | head -20 || true
    differing=$((differing + 1))
  fi
}

for scenario in "$here"/examples/scenarios/*.json "$here"/benchmark/workloads/*.json; do
  same "${scenario#"$here"/}" sim "$scenario" --json
done
for scenario in "$here"/examples/scenarios/*.json; do
  same "levels ${scenario#"$here"/}" levels "$scenario"
done
for spec in "$here"/examples/specs/*.json "$here"/examples/scenarios/*.json; do
  same "check ${spec#"$here"/}" check --deny all "$spec"
done
same "covenant figures" figures
if ((differing > 0)); then
  echo "$differing outputs differ from $rev ($commit)"
  exit 1
fi
echo "same outputs as $rev ($commit)"
