#!/usr/bin/env bash
# Build the benchmark from source in this checkout, then run it:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet perfbench/main.exe 1>&2
# The commit, when this checkout is a git work tree (never a parent's).
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null || echo unknown)
# runtime_events (GC pauses, traced runs) puts its ring file here.
export OCAML_RUNTIME_EVENTS_DIR="$PWD/_build"
exec _build/default/perfbench/main.exe --commit "$commit" "$@"
