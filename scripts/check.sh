#!/usr/bin/env bash
# Full local CI pass: build, tests, lints, and benchmark smoke runs.
# Everything here is hermetic — no network, no external tools beyond the
# Rust toolchain.
set -euo pipefail

cd "$(dirname "$0")/.."

echo "==> xtask lint: workspace invariants (panic-freedom, allocation"
echo "    discipline, determinism, layering, header hygiene, lock order,"
echo "    guard-across-blocking, bare-lock)"
# Parses manifests and scans sources directly, so it runs before anything
# else builds. See DESIGN.md "Static analysis & invariants".
cargo run -p xtask -- lint

echo "==> xtask lint --waivers: every waiver carries a reason and suppresses"
echo "    a real finding"
cargo run -p xtask -- lint --waivers

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace"
cargo test --workspace -q

echo "==> earbench: the repo benchmark builds and tests against the current APIs"
# earbench is its own package (empty [workspace], path deps only), so the
# workspace build above never compiles it; without these steps a change
# to a program API it calls would break the benchmark unnoticed.
cargo build --release --offline --manifest-path earbench/Cargo.toml
cargo test --offline --manifest-path earbench/Cargo.toml

echo "==> earbench traced smoke: each workload once, re-driven stage by stage"
# A traced run re-drives the front end through its public stage
# functions and exits nonzero unless its verdicts and features match the
# program's own bit for bit, so drift between the two fails here instead
# of only in the benchmark pipeline. About 25 s on a 2-vCPU host.
for workload in clinic_quiet home_degraded engine_streams; do
    cargo run --quiet --release --offline --manifest-path earbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 3 --trace 1 | tail -n 1 | cut -c1-120
done

echo "==> robustness: fault injection, quality gating, monotonicity"
# Explicitly exercised even though --workspace already ran them: these
# suites are the acceptance bar for graceful degradation (a corrupted
# capture must recover to the clean verdict or refuse — never flip the
# effusion class). See DESIGN.md "Robustness & graceful degradation".
cargo test -q --test failure_injection --test quality_monotonicity
cargo test -q -p earsonar quality::

echo "==> schedule exploration: verdict bit-identity over 100+ interleavings"
# Replays every enumerable delivery order for small session counts (90
# schedules for 3 sessions x 2 chunks) plus seeded worker/drain-cadence
# variations, asserting verdicts match the sequential baseline bit for
# bit and that backpressure never drops an accepted chunk.
cargo test -q -p earsonar-engine --test schedule_exploration

echo "==> cargo clippy --workspace (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> A/B backend smoke run: candidates vs mfcc-kmeans baseline"
# Scores the candidate feature/classifier backends against the reference
# on the same deterministic cohort and folds and prints the table
# (per-class precision deltas). It writes no file.
cargo run --release -p earsonar-bench --bin ab-bench -- --smoke

echo "All checks passed."
