#!/usr/bin/env bash
# Lists the functions the `fld_*` library crates define that no program
# links: not `exp`, `counter_diff`, the examples or the benchmark.
#
#   scripts/unlinked.sh [ceiling]
#
# Everything is built unoptimised with one codegen unit into
# target/unlinked/, so no used function can hide by being inlined. Prints
# the unlinked functions grouped by module, then `unlinked: <count>`. With
# a ceiling, exits 1 when the count is above it. Generic functions are not
# counted: an rlib holds no code for them. Needs `nm`, `comm` and `jq`.
set -euo pipefail
cd "$(dirname "$0")/.."
out=target/unlinked
mkdir -p "$out"
export LC_ALL=C CARGO_INCREMENTAL=0 RUSTFLAGS="-C opt-level=0 -C codegen-units=1"
build() {
    cargo build --offline --quiet --target-dir "$out" --message-format=json "$@" |
        jq -r 'select(.reason == "compiler-artifact") | .filenames[]?, .executable // empty'
}
{
    build -p fld-bench --bin exp --bin counter_diff
    build -p flexdriver --examples
    build --manifest-path benchmark/Cargo.toml --bin benchmark
} | sort -u >"$out/artifacts"

# Demangled function symbols from the `fld_*` crates, hash suffix dropped;
# `assert_fields_are_eq` is the stub `derive(Eq)` emits and nothing calls.
symbols() {
    nm -C --defined-only "$@" 2>/dev/null | awk '$2 == "T" || $2 == "t"' |
        cut -d' ' -f3- | sed -E 's/::h[0-9a-f]{16}$//' | grep -E '^<?fld_' |
        grep -v assert_fields_are_eq | sort -u
}
symbols $(grep -E '/libfld_[a-z_]+-[0-9a-f]+\.rlib$' "$out/artifacts") >"$out/defined"
symbols $(grep -vE '\.(rlib|rmeta|d)$' "$out/artifacts") >"$out/linked"
comm -23 "$out/defined" "$out/linked" >"$out/unlinked"

# Group by crate and module: `fld_core::hw::Foo::bar` under `fld_core::hw`.
awk '{ s = $0; sub(/^</, "", s); split(s, p, "::"); print p[1] "::" p[2] "\t" $0 }' "$out/unlinked" |
    sort -s -t$'\t' -k1,1 | awk -F'\t' '$1 != m { m = $1; print m } { print "    " $2 }'
count=$(wc -l <"$out/unlinked")
echo "unlinked: $count"
if [ $# -gt 0 ] && [ "$count" -gt "$1" ]; then
    echo "error: $count unlinked functions, above the ceiling of $1" >&2
    exit 1
fi
