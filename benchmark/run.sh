#!/usr/bin/env bash
# The repo benchmark's one command: build the harness from source, then
# run it. Every argument goes to the harness (see --help or README.md).
#
# Runs from the repository root so that the root .cargo/config.toml
# (target-cpu=native) applies to the harness exactly as it does to the
# shipped binaries. CARGO_TARGET_DIR is honoured when set (the benchmark
# driver points it inside its checkout); otherwise build output goes to
# benchmark/target.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
# The build's own output goes to stderr: stdout is the report.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/gmap-benchmark" "$@"
