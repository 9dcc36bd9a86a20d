#!/usr/bin/env bash
# Entry point named by ../BENCHMARK.json; run from the repository root:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Builds from source (into $CARGO_TARGET_DIR, else benchmark/target) and
# runs one of the two binaries: `--trace 0` is the end-to-end run
# (rq-benchmark), `--trace 1` the traced run plus per-layer kernels
# (rq-layers). Only the binary that runs is built, so a leaf-type change
# that breaks rq-layers cannot take the end-to-end gate down with it.
set -euo pipefail

bin=rq-benchmark
prev=
for arg in "$@"; do
    if [[ $prev == --trace && $arg != 0 ]]; then
        bin=rq-layers
    fi
    prev=$arg
done

exec cargo run --quiet --release --offline \
    --manifest-path "$(dirname "$0")/Cargo.toml" --bin "$bin" -- "$@"
