#!/usr/bin/env bash
# Build the program and the benchmark from source, then run a workload:
#   bash perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# W is ingest-cold, parse-adversarial, serve-open, or "all" (the three in
# turn, one result line each).  Run from the repository root.  Build
# output goes to stderr; the last stdout line is the result JSON.
set -euo pipefail
for f in dune-project lib/core/extractor.ml bin/wqi_serve.ml perfbench/dune; do
  if [ ! -e "$f" ]; then
    echo "perfbench: $f missing; run from the root of a wqi source tree" >&2
    exit 2
  fi
done
# Keep every build artefact inside the tree (no shared dune cache).
export DUNE_CACHE=disabled
dune build --root . ./perfbench/perfbench.exe ./bin/wqi_serve.exe 1>&2
run() {
  ./_build/default/perfbench/perfbench.exe \
    --server ./_build/default/bin/wqi_serve.exe --work-dir .perfbench "$@"
}
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  if [ "${args[$i]}" = "--workload" ] && [ "${args[$((i + 1))]:-}" = "all" ]; then
    for w in ingest-cold parse-adversarial serve-open; do
      args[$((i + 1))]=$w
      run "${args[@]}"
    done
    exit 0
  fi
done
run "$@"
