#!/bin/sh
# Build the e2e benchmark from source and run it.
#
#   sh e2e/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   sh e2e/run.sh --all [--seed <n>] [--seconds <s>] [--trace <0|1>]
#
# The first form runs one workload; --all runs every workload, each in a
# process of its own. Run from anywhere: the script works from the root
# of the repository, and writes only under _build/ and e2e/_out/.
set -eu
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./e2e/main.exe >&2
exe=./_build/default/e2e/main.exe
# The GC reader's event ring is a file; keep it inside the build tree.
mkdir -p _build/e2e-events
OCAML_RUNTIME_EVENTS_DIR="$PWD/_build/e2e-events"
export OCAML_RUNTIME_EVENTS_DIR
if [ "${1:-}" = "--all" ]; then
  shift
  status=0
  for w in $("$exe" --list); do
    "$exe" --workload "$w" "$@" || status=1
  done
  exit "$status"
fi
exec "$exe" "$@"
