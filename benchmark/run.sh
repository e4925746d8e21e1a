#!/usr/bin/env bash
# The benchmark's one command. Builds the `wcbk` server binary and the
# benchmark driver from source, then runs one workload:
#
#   bash benchmark/run.sh --workload ingest|oneshot|handles --seed N \
#       --seconds S --trace 0|1 [--tiny]
#
# Build output goes to stderr; the last line of stdout is the JSON result.
# Honors CARGO_TARGET_DIR (default: target/ at the repository root).
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p wcbk --bin wcbk >&2
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2

exec "$target/release/wcbk-benchmark" \
    --server "$target/release/wcbk" \
    --work-dir "$root/.bench_work" \
    "$@"
