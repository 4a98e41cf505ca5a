#!/bin/sh
# Link audit: the host benchmark's binary must not contain the bench gate.
# perf/ names only the JSON decoder (Workloads.Bench_gate.Json); the gate's
# checks live in Workloads.Bench_check, which OCaml links only when some
# unit references it. A reference from any unit perf/main.exe links would
# put the gate's code ahead of the simulator's hot units, so that every
# change to a check moves the code the benchmark measures.
#
#   sh test/perf_link.sh PATH/TO/perf/main.exe
#
# Fails naming each symbol of the gate unit found in the binary.
set -e
exe=${1:?usage: sh test/perf_link.sh PATH/TO/perf/main.exe}
found=$(nm "$exe" | awk '$NF ~ /^camlWorkloads__Bench_check[.$]/ { print $NF }')
if [ -n "$found" ]; then
  echo "$exe links the bench gate (Workloads.Bench_check):"
  echo "$found" | sed 's/^/  /'
  echo "$(echo "$found" | wc -l) symbol(s): drop the reference to Bench_check from the unit perf/ links"
  exit 1
fi
