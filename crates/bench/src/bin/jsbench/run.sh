#!/usr/bin/env bash
# Builds the daemon and the benchmark from source, then runs jsbench.
#
#   bash crates/bench/src/bin/jsbench/run.sh --workload warm-ide --seed 1 --seconds 15 --trace 0
#   bash crates/bench/src/bin/jsbench/run.sh compare BASE_DIR HEAD_DIR
#
# Arguments that do not start with a subcommand go to `jsbench run`.
# Artifacts land in $CARGO_TARGET_DIR (default: target/ at the repo root).
set -euo pipefail
cd "$(dirname "$0")/../../../../.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline -q -p jumpslice-serve
cargo build --release --offline -q --manifest-path crates/bench/src/bin/jsbench/Cargo.toml
case "${1:-}" in
run | trace | compare) exec "$CARGO_TARGET_DIR/release/jsbench" "$@" ;;
*) exec "$CARGO_TARGET_DIR/release/jsbench" run "$@" ;;
esac
