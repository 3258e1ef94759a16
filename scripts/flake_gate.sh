#!/bin/sh
# Flake gate: rerun the multicore and stream-transport suites K times
# (default 10) while a second copy of the same suites runs concurrently as
# competing CPU load. Any failure, in either copy, fails the gate.
#
#   scripts/flake_gate.sh [K]
#
# Needs a built tree (dune build). Each copy logs to its own directory so
# the two never share alcotest output files.
set -eu
cd "$(dirname "$0")/.."

k=${1:-10}
bin=./_build/default/test/test_main.exe
logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT

suites() {
  mkdir -p "$1/multicore" "$1/stream"
  "$bin" test multicore -o "$1/multicore" >"$1.out" 2>&1 \
    && "$bin" test backend.tcp -o "$1/stream" >>"$1.out" 2>&1
}

i=1
while [ "$i" -le "$k" ]; do
  suites "$logs/load" &
  load_pid=$!
  if ! suites "$logs/main"; then
    wait "$load_pid" || true
    echo "flake gate: run $i/$k failed" >&2
    cat "$logs/main.out" >&2
    exit 1
  fi
  if ! wait "$load_pid"; then
    echo "flake gate: competing copy failed in run $i/$k" >&2
    cat "$logs/load.out" >&2
    exit 1
  fi
  i=$((i + 1))
done
echo "flake gate: multicore + stream suites green in $k contended runs"
