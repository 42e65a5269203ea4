#!/usr/bin/env bash
# Two full sets of runs of the same commit, RUNS (default 10) runs per
# workload each, on disjoint seeds. Passes only if, for every end-to-end
# metric on every workload, the spread across a set's runs (quartile
# distance over median) is inside the metric's bound and the two sets'
# medians differ by no more than the bound. Takes about
# 2 x RUNS x 6 x 20 seconds.
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${RUNS:-10}"
bash bench/run.sh -runs "$runs" -seed 1 -results bench/out/agree-a.json
bash bench/run.sh -runs "$runs" -seed $((1 + runs)) -results bench/out/agree-b.json
bash bench/run.sh -compare -agree bench/out/agree-a.json bench/out/agree-b.json
