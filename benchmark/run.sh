#!/usr/bin/env bash
# Build the benchmark and the daemon it drives from source, then hand over to
# `gz_benchmark` with the caller's arguments (see README.md).
#
# Both binaries land in CARGO_TARGET_DIR, by default the root workspace's own
# `target/`, so an earlier `cargo build --release` there is reused.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"
# Cargo's own chatter goes to stderr; stdout belongs to the benchmark.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins 1>&2
exec "$CARGO_TARGET_DIR/release/gz_benchmark" "$@"
