#!/usr/bin/env bash
# The repo's benchmark, one command. Builds `kvcached` and the harness from
# source in release mode, then hands every argument to the harness:
#
#   benchmark/run.sh --workload W [--seed S] [--seconds N] [--trace 0|1] [--smoke]
#   benchmark/run.sh                 every workload, untraced then traced
#   benchmark/run.sh --noise N       N sets of runs twice over, compared
#
# See benchmark/README.md.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")

# One target directory for both builds: the one the caller names (the
# driver does, relative to the directory it starts the benchmark in), or
# this package's own.
target=${CARGO_TARGET_DIR:-$here/target}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target

# Build output goes to stderr: the last line of stdout is the result.
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p rp-kvcache --bin kvcached >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$target/release/rpbench" --kvcached "$target/release/kvcached" \
    --out "$here/out" --commit "$commit" "$@"
