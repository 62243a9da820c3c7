#!/usr/bin/env bash
# Offline CI gate: build, test, lint, static analysis, format.
#
# Everything runs with --offline against the vendored shims in shims/
# (rand / proptest / criterion), so no network access is required.
# Criterion benches are gated behind the `bench-harness` feature and
# are compile-checked here, not run.
#
# apex-lint (crates/lint) is the workspace's own invariant checker: it
# walks crates/*/src and fails the gate on any finding — cost-counter
# writes outside the storage/executor layers, panics reachable from the
# serving roots (whole-workspace call graph), lock-order cycles and
# blocking under two guards, allocation in the semijoin hot paths,
# panicking calls in library code, missing #![forbid(unsafe_code)],
# stray terminal output, direct process::exit, buffer pools constructed
# outside storage/batch, and stale or unjustified suppressions. See
# crates/lint/RULES.md. The lint_selfcheck step archives the machine
# reports (SARIF + JSON) under results/.

set -euo pipefail
cd "$(dirname "$0")"

STEP_NAMES=()
STEP_SECS=()

run() {
    echo "==> $*"
    local t0 t1
    t0=$SECONDS
    "$@"
    t1=$SECONDS
    STEP_NAMES+=("$1 ${2-}")
    STEP_SECS+=($((t1 - t0)))
}

# Curated pedantic subset on top of the default clippy set: leftover
# debugging and placeholder macros never belong in a green tree.
CLIPPY_EXTRA=(
    -W clippy::dbg_macro
    -W clippy::todo
    -W clippy::unimplemented
)

# The concurrency stress suite must pass deterministically, not just
# once: 20 consecutive release-mode runs under a hard timeout. A single
# flake (torn snapshot, unattributed buffer traffic, stuck refresher)
# fails the gate.
stress() {
    cargo test --release --offline -p apex-suite --test concurrency_stress --quiet
    for i in $(seq 1 20); do
        timeout 60 cargo test --release --offline -p apex-suite \
            --test concurrency_stress --quiet >/dev/null \
            || { echo "stress iteration $i failed"; exit 1; }
    done
    echo "stress: 20/20 iterations green"
}

# The kernel microbench doubles as a smoke test: it runs the three
# semijoin kernels over real dataset edge relations at end:extent ratios
# 1:1 … 1:10^4 and *asserts* (a) the adaptive picker stays within 1.5x
# of the best fixed kernel's work, and (b) the succinct representation
# beats the full-decode baseline on wall clock at every ratio >= 1:10
# (within 5% at 1:1) with resident bytes <= 50% of the decoded Vec —
# a perf regression in the succinct path fails CI here. Runs in a temp
# dir so its BENCH_kernels.json never lands in the tree.
kernel_smoke() {
    local out
    out=$(mktemp -d)
    (cd "$out" && "$OLDPWD/target/release/kernels")
    rm -rf "$out"
}

# The benchmark (perfbench/) is a cargo workspace of its own that builds
# the library crates from source through path dependencies. Building it
# and running its unit tests here makes a library change that breaks the
# benchmark fail the gate.
perfbench_check() {
    cargo test --offline --locked --quiet --manifest-path perfbench/Cargo.toml
}

# The self-check runs apex-lint over the workspace (its own sources
# included) and archives the machine-readable reports under results/ for
# code-scanning consumers. Text mode above is the human-facing gate;
# this step proves the SARIF/JSON reporters stay wired and leaves an
# artifact CI can upload.
lint_selfcheck() {
    mkdir -p results
    cargo run --release --offline --quiet -p apex-lint -- \
        --root . --format sarif >results/apex-lint.sarif
    cargo run --release --offline --quiet -p apex-lint -- \
        --root . --format json >results/apex-lint.json
    echo "lint_selfcheck: reports in results/apex-lint.{sarif,json}"
}

# The crash-recovery suite is the durability gate: three fixed-seed
# byte-offset sweeps (270 distinct crash points across append /
# checkpoint / rename traffic) plus named-site kills, golden snapshot
# corruption, and crash-during-recovery re-entry. Release mode under a
# hard timeout — recovery that converges but crawls is also a failure.
recovery_smoke() {
    timeout 300 cargo test --release --offline -p apex-suite \
        --test crash_recovery --quiet
    timeout 120 cargo test --release --offline -p apex-suite \
        --test wal_props --quiet
    echo "recovery_smoke: crash sweeps + WAL frame properties green"
}

# The network load generator is the serving smoke test: it drives a
# real apex-net socket server closed- and open-loop while the refresher
# swaps index generations underneath, then drains and *asserts* the
# accounting invariant (accepted == served + shed + timed-out, queue
# high-water ≤ cap, overload shed explicitly, ≥2 generations served).
net_smoke() {
    local out
    out=$(mktemp -d)
    (cd "$out" && timeout 120 "$OLDPWD/target/release/netload")
    rm -rf "$out"
}

# The rollout is the replicated-serving smoke test: it serves one
# engine from two replicas, restarts each of them under live load from
# four clients that hold both addresses, and *asserts* the rollout
# invariant (zero client-visible sheds or errors, every request
# answered Ok, balanced live and retired ledgers).
rollout_smoke() {
    timeout 120 target/release/apex-cli --dataset play --size 5 \
        rollout --replicas 2 --requests 400 --clients 4
}

run cargo build --release --offline --workspace
run cargo test --offline --workspace --quiet
run kernel_smoke
run perfbench_check
run net_smoke
run rollout_smoke
run recovery_smoke
run stress
run cargo clippy --offline --workspace --all-targets -- "${CLIPPY_EXTRA[@]}" -D warnings
run cargo run --release --offline --quiet -p apex-lint -- --root .
run lint_selfcheck
run cargo bench --offline --no-run --features apex-bench/bench-harness -p apex-bench
run cargo fmt --check

echo
echo "step timing:"
for i in "${!STEP_NAMES[@]}"; do
    printf '  %4ss  %s\n' "${STEP_SECS[$i]}" "${STEP_NAMES[$i]}"
done

echo "CI OK"
