#!/bin/sh
# Builds the benchmark from source, then runs it with the given arguments:
#
#   sh perf/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build output goes to stderr, so the last
# line of stdout is the run's JSON result. The build directory is
# $CARGO_TARGET_DIR when set, _build otherwise.
set -e
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-_build}"
dune build --root . --build-dir "$build" --cache=disabled --display=quiet perf/main.exe >&2
exec "$build/default/perf/main.exe" "$@"
