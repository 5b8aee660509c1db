#!/usr/bin/env bash
# Matrix driver for the bench sweeps and their regression gates.
#
# One manifest line per sweep: `bench  baseline  output`. A `-` baseline
# means the sweep runs ungated. Either way the bench exits non-zero
# (and `set -e` stops the run) when one of its own acceptance predicates
# fails or its output file could not be written. Adding a sweep to CI is
# adding a line.
#
# Environment:
#   TWIN_BENCH_PACKETS    forwarded to the benches (unset = full budget)
#   TWIN_BENCH_GATE=0     run the sweeps but skip the baseline gates
#                         (nightly full-budget runs: the committed
#                         baselines are 64-packet numbers)
set -euo pipefail
cd "$(dirname "$0")/.."

# Allowed cycles/packet drift against a committed baseline.
tolerance=0.10
gate="${TWIN_BENCH_GATE:-1}"

manifest="
batch_sweep       -                             -
shard_sweep       bench/baseline.json           BENCH_shard.json
upcall_sweep      bench/baseline_upcall.json    BENCH_upcall.json
moderation_sweep  bench/baseline_itr.json       BENCH_itr.json
autotune_sweep    bench/baseline_autotune.json  BENCH_autotune.json
zerocopy_sweep    bench/baseline_zerocopy.json  BENCH_zerocopy.json
livelock_sweep    bench/baseline_livelock.json  BENCH_livelock.json
fault_sweep       bench/baseline_fault.json     BENCH_fault.json
affinity_sweep    bench/baseline_affinity.json  BENCH_affinity.json
"

while read -r bench baseline output; do
  [ -n "$bench" ] || continue
  echo "==> $bench"
  # The output is gitignored and survives between runs: remove it so the
  # gate below can only ever read what this run wrote.
  [ "$output" = "-" ] || rm -f "$output"
  cargo bench -p twin-bench --bench "$bench"
  if [ "$baseline" != "-" ] && [ "$gate" != "0" ]; then
    python3 bench/check_regression.py "$baseline" "$output" --tolerance "$tolerance"
    # Information only — the tolerance gate above decides. A refactor
    # that claims "baselines bit-exact" reads it off this line.
    if cmp -s "$baseline" "$output"; then
      echo "$bench: $output vs $baseline: bit-exact"
    else
      echo "$bench: $output vs $baseline: differs, within tolerance"
    fi
  fi
done <<EOF
$manifest
EOF
