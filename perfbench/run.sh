#!/usr/bin/env bash
# Builds the benchmark and the wsync-serve daemon from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload <dense_sweep|small_sweep|serve_mixed> \
#       --seed N --seconds S --trace <0|1>
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); stores,
# the pre-filled serve store and trace spans go to .bench_work. Both sit in
# the working directory. Only the last stdout line is the JSON result.
set -euo pipefail

root="$(pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet \
    --manifest-path "$root/Cargo.toml" -p wsync-serve --bin wsync-serve >&2
cargo build --release --offline --quiet \
    --manifest-path "$root/perfbench/Cargo.toml" >&2

exec "$target/release/wsync-perfbench" "$@" \
    --serve-bin "$target/release/wsync-serve" \
    --work-dir "$root/.bench_work"
