#!/usr/bin/env bash
# Builds hilpbench and the hilpd daemon it drives, then runs the benchmark
# with the given arguments. Run it from the repository root, e.g.
#
#   bash hilpbench/run.sh --workload fig7-grid --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); cargo's own
# messages go to stderr so that stdout carries only the benchmark's output.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path hilpbench/Cargo.toml >&2
cargo build --release --offline --quiet --manifest-path Cargo.toml -p hilp-server --bin hilpd >&2
exec "$CARGO_TARGET_DIR/release/hilpbench" "$@"
