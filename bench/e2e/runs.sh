#!/usr/bin/env bash
# Make a result set for compare.exe: RUNS untraced runs of every workload,
# seeds FIRST_SEED .. FIRST_SEED+RUNS-1, plus one traced run per workload,
# each as long as BENCHMARK.json's run_seconds.  Run from the root of the
# repository:
#
#   bash bench/e2e/runs.sh results/a 5 1
#   bash bench/e2e/runs.sh results/b 5 6
#   ./_build/default/bench/e2e/compare.exe results/a results/b
set -euo pipefail

out=${1:?usage: runs.sh OUT_DIR RUNS [FIRST_SEED]}
runs=${2:?usage: runs.sh OUT_DIR RUNS [FIRST_SEED]}
first=${3:-1}
seconds=$(sed -n 's/^ *"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)

mkdir -p "$out"
for w in serve-hot serve-churn cold-start count-gkm; do
  for ((k = 0; k < runs; k++)); do
    s=$((first + k))
    bash bench/e2e/run.sh --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 \
      --out "$out/$w-s$s.json" | tail -n 1
  done
  bash bench/e2e/run.sh --workload "$w" --seed "$first" --seconds "$seconds" --trace 1 \
    --out "$out/$w-s$first-traced.json" | tail -n 1
done
