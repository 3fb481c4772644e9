#!/usr/bin/env bash
# Self-agreement check: build, run the whole suite twice at one seed, and
# compare the two records. Exits non-zero if an exact metric differs or a
# bounded one moved by more than its bound and the runs' own spread.
# Extra arguments go to both runs (e.g. `--seed 11 --seconds 5`).
set -euo pipefail
cd "$(dirname "$0")"

bench() { cargo run --release --offline --quiet -- "$@"; }

cargo build --release --offline
mkdir -p out
bench run --out out/check_a.json "$@"
bench run --out out/check_b.json "$@"
bench compare out/check_a.json out/check_b.json
