#!/usr/bin/env bash
# Builds the benchmark driver from source in release mode and runs it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of a checkout. The build goes to _build_perfbench/ and
# dune's shared cache is off, so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no dune-project or lib/ here; run from a full checkout" >&2
  exit 2
fi
dune build --root . --profile release --cache disabled \
  --build-dir _build_perfbench ./perfbench/main.exe 1>&2
export BORG_DOMAINS=1
PERFBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT
exec ./_build_perfbench/default/perfbench/main.exe "$@"
