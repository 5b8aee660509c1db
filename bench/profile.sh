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
# is setting up each run). The profiled build keeps frame pointers (see
# below). A virtual machine may deliver far fewer clock samples than the
# interval asks for: compare two commits with the same workload and
# length, and report the counts.
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
RUSTFLAGS="-C force-frame-pointers=yes" CARGO_TARGET_DIR=$out/build \
    cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
exp=$out/$workload.er
mkdir -p "$out"
rm -rf "$exp" "$out/$workload.jsonl"
if ! gprofng collect app -p hi -o "$exp" "$out/build/release/bench" run \
    --workload "$workload" --seconds "$seconds" --trace 0 \
    --out "$out/$workload.jsonl" >"$out/$workload.log" 2>&1; then
    cat "$out/$workload.log" >&2
    exit 1
fi
interval_us=$(gprofng display text -header "$exp" | grep -oE 'interval = [0-9]+' | grep -oE '[0-9]+$')
# The profiled run's own host time per packet, to turn shares into ns.
ns_per_pkt=$(grep -oE '"host_ns_per_pkt": \{"value": [0-9.e+-]+' "$out/$workload.jsonl" |
    tail -1 | grep -oE '[0-9.e+-]+$')

# One line per function: inclusive CPU seconds, then the name.
gprofng display text -metrics i.totalcpu -sort i.totalcpu -functions "$exp" |
    awk -v w="$workload" -v s="$seconds" -v us="${interval_us:-1000}" -v ns="${ns_per_pkt:-0}" '
    $1 ~ /^[0-9.]+$/ {
        t = $1; $1 = ""; name = substr($0, 2)
        if (name == "<Total>") total = t
        else if (name ~ /System>::receive_burst$/) rx = (t > rx ? t : rx)
        else if (name ~ /System>::receive_burst_arriving$/) rx = (t > rx ? t : rx)
        else if (name ~ /System>::(transmit_burst|rx_open_loop_arrival|rx_open_loop_service)$/) win += t
        else if (name == "twin_machine::interp::Exec::run") run += t
        else if (name ~ /^<twindrivers::system::World as twin_machine::interp::Env>::extern_call$/) ext += t
        else if (name == "twin_kernel::call_function") call += t
    }
    END {
        win += rx
        if (win == 0) { print "no samples in the measured window" > "/dev/stderr"; exit 1 }
        printf "bench/profile.sh %s, %s s: %d samples in the measured window (%.0f %% of %d), %.0f ns/pkt\n",
            w, s, win * 1e6 / us, 100 * win / total, total * 1e6 / us, ns
        share("interpreter dispatch", run - ext)
        share("crossings", ext)
        share("pipeline", win - call)
        share("run set-up", call - run)
    }
    function share(layer, t) {
        printf "  %-20s  %5.1f %%  %5.0f ns/pkt\n", layer, 100 * t / win, ns * t / win
    }'
