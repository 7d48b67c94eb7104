#!/bin/bash
cd "$(dirname "$0")"
dune runtest --force --no-buffer > test_output.txt 2>&1
echo "TESTS_EXIT=$?" >> test_output.txt
# MUTPS_BENCH_SCALE is propagated explicitly so a caller-chosen scale
# survives any sudo/env-scrubbing indirection; MUTPS_SAMPLE=K[,INTERVAL]
# (or empty for the defaults) switches the experiments to interval
# sampling with reconstruction error bounds in the rows.
{
  env ${MUTPS_BENCH_SCALE:+MUTPS_BENCH_SCALE="$MUTPS_BENCH_SCALE"} \
    dune exec bin/mutps_cli.exe -- run \
    ${MUTPS_SAMPLE+--sample=$MUTPS_SAMPLE} all
  run_status=$?
  dune exec bin/mutps_cli.exe -- micro
  micro_status=$?
} > bench_output.txt 2>&1
echo "BENCH_EXIT=$(( run_status != 0 ? run_status : micro_status ))" >> bench_output.txt
touch .final_done
