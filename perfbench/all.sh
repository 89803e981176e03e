#!/bin/sh
# Runs every workload of the benchmark in turn, from the repository root.
# Extra arguments (e.g. `--trace 1`, `--seed 7`) go to each run.
set -e
cd "$(dirname "$0")/.."
for w in paper_suite grid_200k cbs_nets; do
    cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" "$@"
done
