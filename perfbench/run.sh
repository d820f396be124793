#!/usr/bin/env bash
# Builds shapmc and the benchmark from the checkout's sources, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload cli-hard --seed 3 --seconds 20 --trace 0
#   bash perfbench/run.sh --steady 10 --workload serve-mixed --seconds 20
#
# It runs from the checkout's root, the directory above this one.  The
# build stays inside the checkout (_build, no shared dune cache).  Its
# log goes to stderr, so the result line is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . ./bin/shapmc.exe ./perfbench/perfbench.exe >&2
exec ./_build/default/perfbench/perfbench.exe "$@"
