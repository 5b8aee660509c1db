#!/usr/bin/env bash
# Alternating A/B runs of the benchmark (`BENCHMARK.json`, package
# `benchmark/`): A is the benchmark built at a git revision, B the one
# built from the working tree.
#
#   bench/ab.sh [rev=HEAD~1] [seconds] [pairs=10] [workload]
#
# Checks `rev` out under target/ab/ (a clone sharing this repository's
# objects, removed afterwards), builds both binaries there, each in its
# own target directory, then runs `pairs` pairs of every workload (of
# `workload` alone when it is given), A first in odd pairs and B first in
# even ones, `seconds` per workload (the contract's `run_seconds` when
# omitted; an empty string omits it too), into target/ab/A.jsonl and
# B.jsonl. Prints
# `host_ns_per_pkt` pair by pair with how many pairs B won, then `bench
# compare A.jsonl B.jsonl`. Last, one short traced run per side (`--trace
# 1 --seconds 2`, into target/ab/{A,B}.traced.jsonl) reports the
# per-layer metrics.
#
# Exits non-zero if a run reports `"correct": false`, if any simulated
# metric (`sim_*`, `delivered_frac`, `paper_err_frac`) differs between or
# within the two sides, if any simulated per-layer metric of the traced
# runs differs (every one but the host-time names: those that begin with
# `host.` or contain `_ns`, `_us`, `_ms` or `overhead_frac`), or if
# `bench compare` finds a regression. Host
# time on a shared machine is noisy, which is why this is a tool for a
# change's evidence and not a CI gate. Needs bash, git and cargo.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
rev=${1:-HEAD~1}
seconds=${2:-}
pairs=${3:-10}
workload=${4:-}
out=$root/target/ab
sha=$(git rev-parse --verify "$rev^{commit}")

rm -rf "$out"
mkdir -p "$out"
# A checkout of `rev` that shares this repository's objects. Building
# rewrites benchmark/Cargo.lock, so the lock is saved first and put back
# on exit: the working tree ends as the script found it.
tree=$out/tree
lock=$root/benchmark/Cargo.lock
cp "$lock" "$out/Cargo.lock"
trap 'rm -rf "$tree"; cp "$out/Cargo.lock" "$lock"' EXIT
git clone --quiet --shared --no-checkout "$root" "$tree"
git -C "$tree" checkout --quiet --detach "$sha"

build() { # side, source tree
    CARGO_TARGET_DIR=$out/target-$1 cargo build --release --quiet --offline \
        --manifest-path "$2/benchmark/Cargo.toml"
    cp "$out/target-$1/release/bench" "$out/bench-$1"
}
echo "building A ($rev = ${sha:0:10}) and B (working tree)"
build A "$tree"
build B "$root"

run() { # side
    "$out/bench-$1" run --trace 0 ${seconds:+--seconds "$seconds"} \
        ${workload:+--workload "$workload"} --out "$out/$1.jsonl" >/dev/null
}
for pair in $(seq "$pairs"); do
    echo "pair $pair/$pairs"
    if ((pair % 2)); then run A; run B; else run B; run A; fi
done

for side in A B; do
    "$out/bench-$side" run --trace 1 --seconds 2 ${workload:+--workload "$workload"} \
        --out "$out/$side.traced.jsonl" >/dev/null
done

status=0
if grep -q '"correct": false' "$out"/{A,B}.jsonl "$out"/{A,B}.traced.jsonl; then
    echo "FAIL: a run reported \"correct\": false"
    status=1
fi
# One line per distinct (workload, simulated metrics): the same on both
# sides, and one per workload within a side.
simulated() {
    while IFS= read -r line; do
        grep -o '"workload": "[^"]*"' <<<"$line" | tr '\n' ' '
        grep -oE '"(sim_[a-z0-9_]*|delivered_frac|paper_err_frac)": \{"value": [^,}]*' <<<"$line" |
            tr '\n' ' '
        echo
    done <"$out/$1.jsonl" | sort -u
}
if [[ "$(simulated A)" != "$(simulated B)" ]]; then
    echo "FAIL: simulated metrics differ between A and B"
    diff <(simulated A) <(simulated B) || true
    status=1
fi
# One line per (workload, simulated per-layer metrics) of a traced run.
layers() {
    while IFS= read -r line; do
        grep -o '"workload": "[^"]*"' <<<"$line" | tr '\n' ' '
        grep -oE '"[A-Za-z0-9_.-]+": \{"value": [^,}]*' <<<"$line" |
            grep -vE '^"host\.|_ns|_us|_ms|overhead_frac' | tr '\n' ' '
        echo
    done <"$out/$1.traced.jsonl"
}
if [[ "$(layers A)" != "$(layers B)" ]]; then
    echo "FAIL: simulated per-layer metrics differ between A and B"
    diff <(layers A | tr ' ' '\n') <(layers B | tr ' ' '\n') || true
    status=1
fi
workloads=$(simulated A | grep -o '"workload": "[^"]*"' | sort | uniq -c)
if grep -qv '^ *1 ' <<<"$workloads"; then
    echo "FAIL: simulated metrics differ between runs of one side"
    status=1
fi

host() { # side, workload: host_ns_per_pkt of each run, in order
    grep "\"workload\": \"$2\"" "$out/$1.jsonl" |
        grep -oE '"host_ns_per_pkt": \{"value": [^,}]*' | grep -oE '[0-9.e+-]+$'
}
echo
echo "host_ns_per_pkt, pair by pair (A B):"
for w in $(grep -o '"workload": "[^"]*"' "$out/A.jsonl" | cut -d'"' -f4 | sort -u); do
    paste -d' ' <(host A "$w") <(host B "$w") | awk -v w="$w" '
        { line = line sprintf(" %.0f/%.0f", $1, $2); won += ($2 < $1); n++ }
        END { printf "  %-13s B won %d of %d:%s\n", w, won, n, line }'
done
echo
"$out/bench-B" compare "$out/A.jsonl" "$out/B.jsonl" || status=1
exit "$status"
