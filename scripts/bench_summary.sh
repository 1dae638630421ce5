#!/usr/bin/env bash
# The table and the gate verdict of scripts/bench_pairs.sh, from its samples.
#
#   scripts/bench_summary.sh <samples-file>
#
# A sample is one line `<side> <pair> <workload> <metric> <value> <unit>`,
# <side> being `this` or `other`. Prints, per workload and metric: wins of
# `this` out of the pairs that did not tie, then each side's median and
# inter-quartile distance; and last the verdict line.
#
# Exits 1 iff some end-to-end metric of some workload lost every decided
# pair *and* its median moved past its `bound` in BENCHMARK.json. Either
# alone is what this box does to identical code: timings drift ±10 %
# between runs (benchmark/SPREADS.md), and one pair in two is lost by chance.
#
# `setup_s` is printed but not gated: a `--quick` run, which is what tier-1
# compares, times one set-up of 0.1-6 ms at the start of a process, and
# between identical trees the median of three moved by up to 29 %
# (sim_replay 201 -> 259 µs, all three pairs lost).
set -euo pipefail

samples="${1:?usage: scripts/bench_summary.sh <samples-file>}"
here="$(cd "$(dirname "$0")/.." && pwd)"

echo "# workload metric unit better | wins | other: median iqr | this: median iqr"
# `name=better` per metric, `name=better:bound` for the end-to-end ones.
metrics="$(tr -d ' \n' < "$here/BENCHMARK.json" \
  | grep -oE '"name":"[^"]*","unit":"[^"]*","better":"[a-z]*"(,"bound":[0-9.]*)?' \
  | sed -E 's/"name":"([^"]*)".*"better":"([a-z]*)"(,"bound":([0-9.]*))?/\1=\2:\4/; s/:$//' \
  | tr '\n' ' ')"
awk -v metrics="$metrics" '
  function quantile(v, n, q,    pos, lo) {   # v sorted, 1-based; linear interpolation
    pos = 1 + (n - 1) * q; lo = int(pos)
    return lo >= n ? v[n] : v[lo] + (pos - lo) * (v[lo + 1] - v[lo])
  }
  # The "median iqr" cell of one side; sets median[side].
  function summary(side, key,    n, i, j, x, v) {
    n = count[side, key]
    for (i = 1; i <= n; i++) {   # insertion sort: a handful of samples
      x = value[side, key, i]
      for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]
      v[j + 1] = x
    }
    if (n == 0) return "- -"
    median[side] = quantile(v, n, 0.5)
    return sprintf("%.6g %.6g", median[side], quantile(v, n, 0.75) - quantile(v, n, 0.25))
  }
  BEGIN {
    n = split(metrics, m, " ")
    for (i = 1; i <= n; i++) {
      split(m[i], kv, "="); split(kv[2], bb, ":")
      better[kv[1]] = bb[1]
      if (bb[2] != "") bound[kv[1]] = bb[2] + 0
    }
    delete bound["setup_s"]
  }
  {
    key = $3 " " $4; unit[key] = $6
    if (!(key in seen)) { seen[key] = 1; order[++keys] = key }
    value[$1, key, ++count[$1, key]] = $5 + 0
    at[$1, key, $2] = $5 + 0; has[$1, key, $2] = 1
    if ($2 > pairs) pairs = $2
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
      other = summary("other", key); this = summary("this", key)
      printf "%s %s %s | %d/%d | %s | %s\n", key, unit[key], dir, wins, decided, other, this
      if (!(name[2] in bound) || decided == 0 || wins > 0) continue
      by = bound[name[2]]
      if (dir == "higher" ? median["this"] < median["other"] * (1 - by) \
                          : median["this"] > median["other"] * (1 + by))
        failed = failed sprintf("; %s lost %d/%d pairs and its median went %.6g -> %.6g %s (bound %g)", \
          key, decided, decided, median["other"], median["this"], unit[key], by)
    }
    if (failed != "") { print "# gate: FAIL" substr(failed, 2); exit 1 }
    print "# gate: OK, no end-to-end metric (setup_s is not gated) lost every decided pair and moved past its bound"
  }' "$samples"
