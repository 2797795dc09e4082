#!/usr/bin/env bash
# Same-runner micro bench gate.
#
# Builds `repro` from the head checkout (the current directory) and from a
# base checkout, runs `repro --smoke bench` interleaved -- base, head, base,
# head -- each run in a fresh directory, and gates every head run against
# the base run just before it with `repro bench-compare --threshold 0.3`.
# Both binaries run on one machine minutes apart, so the gate compares the
# commits rather than the machine against the one that measured the
# committed BENCH_micro.json.
#
# usage: .github/perf-smoke.sh <base checkout> [output dir]
#
# Run it from the root of the head checkout. Each run's BENCH_micro.json is
# left under <output dir>/{base,head}-<round>/ (default: perf-smoke/).
set -euo pipefail

base_src=$(cd "$1" && pwd)
out=${2:-perf-smoke}
rounds=2
threshold=0.3

cargo build --release -p shift-experiments --bin repro
cargo build --release -p shift-experiments --bin repro \
    --manifest-path "$base_src/Cargo.toml"
head_bin="$PWD/target/release/repro"
base_bin="$base_src/target/release/repro"

mkdir -p "$out"
out=$(cd "$out" && pwd)
status=0
for round in $(seq 1 "$rounds"); do
    for side in base head; do
        bin=$base_bin
        [ "$side" = head ] && bin=$head_bin
        mkdir -p "$out/$side-$round"
        echo "== round $round: $side"
        (cd "$out/$side-$round" && "$bin" --smoke bench)
    done
    echo "== round $round: head against base (threshold $threshold)"
    "$head_bin" bench-compare "$out/base-$round/BENCH_micro.json" \
        "$out/head-$round/BENCH_micro.json" --threshold "$threshold" || status=1
done
exit "$status"
