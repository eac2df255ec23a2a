#!/usr/bin/env bash
# Build the benchmark (offline, against the in-tree crates) and run it.
#
#   benchmark/run.sh                     all four workloads, end to end and traced
#   benchmark/run.sh --quick             the same at 1/10 size, as a smoke run
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one workload (the driver's call)
#   benchmark/run.sh bless|compare|describe ...
#
# Run it from the repository root; it reads and writes only there.
set -euo pipefail

home="$(dirname "$0")"
cargo build --release --offline --quiet --manifest-path "$home/Cargo.toml"
bin="${CARGO_TARGET_DIR:-$home/target}/release/psc-benchmark"

case "${1:-}" in
    bless | compare | describe) exec "$bin" "$@" --home "$home" ;;
esac
for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" run "$@" --home "$home"
    fi
done
exec "$bin" all "$@" --home "$home"
