#!/usr/bin/env bash
# Build the end-to-end benchmark (main.exe) from source and run it.  Run
# from the root of the repository:
#
#   bash bench/e2e/run.sh --workload serve-hot --seed 3 --seconds 25 --trace 0
#
# Build output goes to stderr, so the last line of stdout is main.exe's
# result line.  Exits non-zero, without a result, when the tree cannot be
# built (e.g. the library sources are missing).
set -euo pipefail

if [[ ! -f dune-project || ! -d lib ]]; then
  echo "run.sh: run from the repository root (dune-project and lib/ not found)" >&2
  exit 2
fi

command -v dune >/dev/null || eval "$(opam env 2>/dev/null)"
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . bench/e2e/main.exe 1>&2
exec ./_build/default/bench/e2e/main.exe "$@"
