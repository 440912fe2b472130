#!/bin/sh
# Builds the benchmark from source and runs one workload:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run it from the root of a checkout. Build output goes to stderr; the last
# line of stdout is the result. See perfbench/README.md.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: needs a full checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)" || true
dune build --root . ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
