#!/usr/bin/env bash
# Self-test of the benchmark: its unit tests (percentile math, metric names
# against BENCHMARK.json), then every workload in tiny mode, untraced and
# traced, end to end against a real server. Takes about a minute after the
# build.
#
#   bash benchmark/selftest.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo test --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
for workload in ingest oneshot handles; do
    for trace in 0 1; do
        line="$(bash "$root/benchmark/run.sh" --workload "$workload" --seed 1 \
            --seconds 1 --trace "$trace" --tiny 2>/dev/null | tail -n 1)"
        case "$line" in
            '{"correct": true, '*) echo "selftest: $workload trace=$trace ok" ;;
            *) echo "selftest: $workload trace=$trace: $line" >&2; exit 1 ;;
        esac
    done
done
