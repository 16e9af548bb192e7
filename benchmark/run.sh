#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the repository root, e.g.
#   bash benchmark/run.sh --workload corpus --seed 1 --seconds 15 --trace 0
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f benchmark/dune ]; then
  echo "benchmark/run.sh: run from the root of a full checkout" \
    "(dune-project, lib/ and benchmark/ are needed)" >&2
  exit 2
fi

# Keep every file the build writes inside the checkout: no shared dune
# cache, and the compilers' temporary files under .bench_build/.
export DUNE_CACHE=disabled
export TMPDIR="$PWD/.bench_build/tmp"
mkdir -p "$TMPDIR"

# Build output goes to stderr: the last line of stdout is the result.
dune build --root . ./benchmark/main.exe 1>&2
exec ./_build/default/benchmark/main.exe "$@"
