#!/usr/bin/env bash
# Builds the serve binaries and the benchmark into one target directory,
# then runs the benchmark with the given arguments. Run from anywhere:
#
#   bash benchmark/run.sh --workload hot-mix --seed 1 --seconds 15 --trace 0
#
# Cargo output goes to stderr; the benchmark's last stdout line is its JSON
# result.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --manifest-path Cargo.toml -p dg-serve --bin dg-serve --bin dg-router >&2
cargo build --release --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/dg-benchmark" "$@"
