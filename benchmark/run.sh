#!/usr/bin/env bash
# The repository's performance gate. See README.md in this directory.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       One run, as the driver makes it: builds, runs W in a fresh
#       process, and prints the result line last on stdout.
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--quick] [--out FILE]
#       Every workload (or W), end to end and then traced; prints every
#       metric and writes the results to FILE
#       (default benchmark/out/results.jsonl).
#   benchmark/run.sh --compare A B
#       Checks result file B against A; exit 1 beyond a bound.
#   benchmark/run.sh --test
#       The benchmark's own unit tests.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The repository's .cargo/config.toml patches seven crates.io names to a
# directory outside the checkout; point them at the stand-ins in stubs/
# (command-line config wins over the file). No registry is needed.
cargo_args=(--offline --manifest-path benchmark/Cargo.toml)
for crate in rand serde serde_derive serde_json proptest criterion crossbeam; do
    cargo_args+=(--config "patch.crates-io.$crate.path='benchmark/stubs/$crate'")
done
bin_dir="${CARGO_TARGET_DIR:-benchmark/target}/release"

# Each binary is built on its own, so a change that breaks `trace`
# cannot take the gate (`e2e`) down with it. Cargo's chatter goes to
# stderr; stdout carries results only.
build() { cargo build --quiet --release "${cargo_args[@]}" --bin "$1" >&2; }

workload="" seed=1 trace="" out="benchmark/out/results.jsonl" pass=()
while (($#)); do
    case "$1" in
    --test)
        exec cargo test --quiet "${cargo_args[@]}"
        ;;
    --compare)
        [[ $# -ge 3 ]] || { echo "usage: run.sh --compare A B" >&2; exit 2; }
        build report
        exec "$bin_dir/report" compare BENCHMARK.json "$2" "$3"
        ;;
    --workload) workload="$2"; shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --trace) trace="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    *) pass+=("$1"); shift ;;
    esac
done

bin_for() { if [[ "$1" == 1 ]]; then echo trace; else echo e2e; fi; }

if [[ -n "$trace" ]]; then
    [[ -n "$workload" ]] || { echo "run.sh: --trace needs --workload" >&2; exit 2; }
    bin="$(bin_for "$trace")"
    build "$bin"
    exec "$bin_dir/$bin" --workload "$workload" --seed "$seed" ${pass[@]+"${pass[@]}"}
fi

build e2e
build trace
build report
mkdir -p "$(dirname "$out")"
: >"$out"
status=0
for w in ${workload:-quad_h4_emc stream_rw compute_core fig12_cold svc_warm}; do
    for t in 0 1; do
        echo "# $w, trace $t" >&2
        line="$("$bin_dir/$(bin_for $t)" --workload "$w" --seed "$seed" ${pass[@]+"${pass[@]}"} | tail -n 1)" || status=1
        echo "{\"workload\":\"$w\",\"trace\":$t,\"seed\":$seed,\"result\":${line:-null}}" >>"$out"
    done
done
"$bin_dir/report" print "$out" || status=1
echo "# results written to $out" >&2
exit $status
