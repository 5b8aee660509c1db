#!/usr/bin/env bash
# Where the host time of one benchmark workload goes, layer by layer,
# from sampled call stacks.
#
#   bench/profile.sh [workload=twin_rx_bulk] [seconds=60]
#
# Builds the benchmark (`BENCHMARK.json`, package `benchmark/`), runs
# `bench run --workload W --seconds S --trace 0` under gprofng's clock
# profiler (`gprofng collect app -p hi`) into target/profile/W.er, and
# prints the shares of the measured window:
#
#   window      inclusive time of the `System` entry points the runner's
#               loop calls: `receive_burst`, `transmit_burst`,
#               `rx_open_loop_arrival`, `rx_open_loop_service` (its
#               warm-up calls included)
#   dispatch    `twin_machine::interp::Exec::run` minus the
#               `Env::extern_call`s it makes: interpreting driver code
#   crossings   `<World as Env>::extern_call`: support routines and SVM
#               helpers, driver → kernel
#   pipeline    the window minus `twin_kernel::call_function`, which
#               every driver run goes through: the Rust pipeline around
#               the driver
#
# each also as ns per packet of the profiled run's `host_ns_per_pkt`,
# and the window's sample count (the rest, `call_function` minus `run`,
# is setting up each run). Then the set-up outside the window, as a
# share of the whole run and as milliseconds of the profiled run's wall
# time (that share of it):
#
#   build_with  inclusive time of `System::build_with`
#   restore     `twin_machine::mem::MemImage::restore`, the memory of
#               each build that forks a kept snapshot (on the buffer its
#               last fork left in its image's slot, only the pages that
#               fork wrote are rewritten), also as a share of
#               `build_with`
#
# How many builds and forks a run makes follows from the workload's
# scenarios and the snapshot cache, so the script divides by neither:
# compare two commits' times at the same workload and length.
#
# The profiled build keeps frame pointers (see below). A virtual
# machine may deliver far fewer clock samples than the interval asks
# for: compare two commits with the same workload and length, and report
# the counts. Below 1 000 samples in the window the script prints a
# warning line and the shares to whole per cents.
# Needs bash, cargo and gprofng (binutils); exits 2 without gprofng.
set -euo pipefail
cd "$(dirname "$0")/.."
workload=${1:-twin_rx_bulk}
seconds=${2:-60}
if ! command -v gprofng >/dev/null; then
    echo "bench/profile.sh: gprofng not found; it ships with GNU binutils" >&2
    exit 2
fi

# Frame pointers let the profiler walk every sampled stack: without them
# a sample taken deep in the interpreter often loses its callers, and
# inclusive times come out short. They cost the profiled build a few
# per cent, so its own target directory keeps it apart from the
# benchmark's.
out=target/profile
mkdir -p "$out"
# Building rewrites benchmark/Cargo.lock; put it back on exit.
cp benchmark/Cargo.lock "$out/Cargo.lock"
trap 'cp "$out/Cargo.lock" benchmark/Cargo.lock' EXIT
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=$out/build \
    cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
exp=$out/$workload.er
rm -rf "$exp" "$out/$workload.jsonl"
started=$(date +%s.%N)
if ! gprofng collect app -p hi -o "$exp" "$out/build/release/bench" run \
    --workload "$workload" --seconds "$seconds" --trace 0 \
    --out "$out/$workload.jsonl" >"$out/$workload.log" 2>&1; then
    cat "$out/$workload.log" >&2
    exit 1
fi
wall=$(echo "$(date +%s.%N) $started" | awk '{print $1 - $2}')
interval_us=$(gprofng display text -header "$exp" | grep -oE 'interval = [0-9]+' | grep -oE '[0-9]+$')
# The profiled run's own host time per packet, to turn shares into ns.
ns_per_pkt=$(grep -oE '"host_ns_per_pkt": \{"value": [0-9.e+-]+' "$out/$workload.jsonl" |
    tail -1 | grep -oE '[0-9.e+-]+$')

# One line per function: inclusive CPU seconds, then the name.
gprofng display text -metrics i.totalcpu -sort i.totalcpu -functions "$exp" |
    awk -v w="$workload" -v s="$seconds" -v us="${interval_us:-1000}" -v ns="${ns_per_pkt:-0}" \
        -v wall="$wall" '
    $1 ~ /^[0-9.]+$/ {
        t = $1; $1 = ""; name = substr($0, 2)
        if (name == "<Total>") total = t
        else if (name ~ /System>::receive_burst$/) rx = (t > rx ? t : rx)
        else if (name ~ /System>::receive_burst_arriving$/) rx = (t > rx ? t : rx)
        else if (name ~ /System>::(transmit_burst|rx_open_loop_arrival|rx_open_loop_service)$/) win += t
        else if (name == "twin_machine::interp::Exec::run") run += t
        else if (name ~ /^<twindrivers::system::World as twin_machine::interp::Env>::extern_call$/) ext += t
        else if (name == "twin_kernel::call_function") call += t
        else if (name ~ /System>::build_with$/) build += t
        else if (name == "twin_machine::mem::MemImage::restore") restore += t
    }
    END {
        win += rx
        if (win == 0) { print "no samples in the measured window" > "/dev/stderr"; exit 1 }
        n = win * 1e6 / us
        printf "bench/profile.sh %s, %s s: %d samples in the measured window (%.0f %% of %d), %.0f ns/pkt\n",
            w, s, n, 100 * win / total, total * 1e6 / us, ns
        # The standard error of a share is up to 50/sqrt(n) per cent: over 1.5
        # points below 1 000 samples, where a tenth of a point means nothing.
        digits = 1
        if (n < 1000) {
            printf "WARNING: fewer than 1000 samples in the window; shares are whole per cents and not to be trusted (profile longer)\n"
            digits = 0
        }
        share("interpreter dispatch", run - ext)
        share("crossings", ext)
        share("pipeline", win - call)
        share("run set-up", call - run)
        printf "set-up outside the window, share of the whole run:\n"
        setup("build_with", build)
        setup("restore", restore)
        if (build > 0) printf "  restore is %.1f %% of build_with\n", 100 * restore / build
    }
    function share(layer, t) {
        printf "  %-20s  %5." digits "f %%  %5.0f ns/pkt\n", layer, 100 * t / win, ns * t / win
    }
    # The profiler keeps only some of the samples it was asked for, so
    # a share turns into time against the wall clock, not the samples.
    function setup(f, t) {
        printf "  %-20s  %5." digits "f %%  %8.1f ms of the run\n", f, 100 * t / total, wall * 1e3 * t / total
    }'
