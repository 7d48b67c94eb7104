#!/bin/bash
# Full evaluation pass: every experiment fanned out over domains, then
# the micro-benchmarks (engine cases + Bechamel substrate suite).
# Produces:
#   bench_output.txt                     text tables + micro-benchmark figures
#   bench_json/BENCH_<exp>.json          per-experiment canonical rows
#   bench_json/BENCH_all.json            combined experiment rows
#   bench_json/BENCH_engine_micro.json   engine cases' wall-clock perf rows
# Scale with MUTPS_BENCH_SCALE (e.g. 0.25), parallelism with BENCH_JOBS
# (default: Domain.recommended_domain_count).  BENCH_EXIT is non-zero if
# any step failed, and is also the script's exit status.
set -u
cd "$(dirname "$0")"
mkdir -p bench_json

jobs_flag=()
if [ -n "${BENCH_JOBS:-}" ]; then
  jobs_flag=(--jobs "$BENCH_JOBS")
fi

{
  dune exec bin/mutps_cli.exe -- run "${jobs_flag[@]}" \
    --json bench_json/BENCH_all.json --json-dir bench_json all
  run_status=$?
  dune exec bin/mutps_cli.exe -- micro \
    --json bench_json/BENCH_engine_micro.json
  micro_status=$?
} > bench_output.txt 2>&1
status=$(( run_status != 0 ? run_status : micro_status ))
echo "BENCH_EXIT=$status" >> bench_output.txt
touch .bench_done
exit "$status"
