#!/usr/bin/env bash
# Runs the nine bench sweeps (`crates/bench/benches/*_sweep.rs`). Each
# checks its own acceptance claims and gates what it measured against
# its committed `bench/baseline_<name>.json` (`twin_bench::Sweep`); the
# first one that fails stops the run with a non-zero exit.
#
# Environment:
#   TWIN_BENCH_PACKETS    packet budget of the sweeps (unset = full
#                         budget; the committed baselines are 64-packet
#                         runs, and a sweep skips a baseline recorded at
#                         another budget)
#   TWIN_TRACE_OUT        directory for the flight-recorder exports
set -euo pipefail
cd "$(dirname "$0")/.."

# The outputs are gitignored and survive between runs: remove them so
# nothing downstream can read what this run did not write.
rm -f BENCH_*.json
cargo bench -p twin-bench --bench '*_sweep'
