#!/usr/bin/env bash
# Build the release gmaa-serve binary and this benchmark from source,
# then run the benchmark against the binary. Run from the repository
# root; every argument is passed through, e.g.
#   bash servebench/run.sh --workload whatif-paper --seed 1 --seconds 35 --trace 0
# Build output goes to stderr so the last stdout line stays the result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --offline -p gmaa-serve --bin gmaa-serve 1>&2
cargo build --release --quiet --offline --manifest-path servebench/Cargo.toml 1>&2
# Flush writeback still pending from the build, so the store's first
# fsyncs do not queue behind it.
sync
exec "$target/release/servebench" --server "$target/release/gmaa-serve" "$@"
