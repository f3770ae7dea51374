#!/bin/sh
# Runs every workload once untraced, then the traced layer survey once,
# from the root of the repository: sh perfbench/run_all.sh [seed] [seconds]
# A traced run surveys every layer whatever its --workload, so one traced
# run covers them all.
set -e
seed=${1:-1}
seconds=${2:-30}
run() {
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --seed "$seed" --seconds "$seconds" "$@"
}
for w in durable_write read_mostly crash_restart sim_replay; do
    run --workload "$w" --trace 0
done
run --workload durable_write --trace 1
