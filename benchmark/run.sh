#!/usr/bin/env bash
# The repo benchmark, one command. Builds the release CLI and the harness
# offline, then:
#
#   benchmark/run.sh [--seed S] [--trace] [--repeat N] [--smoke]
#       all four workloads, each in its own process; prints every metric as
#       `workload metric value unit`, writes benchmark/out/results.json
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       one workload; the last line of stdout is the result as one JSON
#       object (the form BENCHMARK.json's `command` is run in)
#
# Run it from the repository root. See benchmark/README.md.
set -euo pipefail

target="${CARGO_TARGET_DIR:-target}"
# Build output goes to stderr: stdout is the result.
cargo build --release --offline -p wdsparql-cli --target-dir "$target" >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$target/release/wdbench" "$@"
    fi
done
exec "$target/release/wdbench" suite "$@"
