#!/usr/bin/env bash
# Repo-wide gate: formatting, lints, the tier-1 build + tests, and the
# whole workspace's tests.
# Run from anywhere; everything executes at the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --all-targets --workspace -- -D warnings"
cargo clippy --all-targets --workspace -- -D warnings

# The crates a data-plane or telemetry PR touches get a dedicated pass:
# the workspace run above already denies warnings, but naming the crates
# makes a local `check.sh` failure point straight at them (and it is
# nearly free — the artifacts are already cached).
echo "==> cargo clippy -p hotcalls -p bench -p sgx-sim -p apps --all-targets -- -D warnings"
cargo clippy -p hotcalls -p bench -p sgx-sim -p apps --all-targets -- -D warnings

# The telemetry-off feature must keep lint-clean, not just building: the
# overhead gate's baseline is a `--features telemetry-off` bench build,
# and the ctl module compiles to a frozen static-default router there —
# a cfg'd-out branch only this pass ever lints.
echo "==> cargo clippy -p hotcalls -p bench --features telemetry-off --all-targets -- -D warnings"
cargo clippy -p hotcalls --features telemetry-off --all-targets -- -D warnings
cargo clippy -p bench --features telemetry-off --all-targets -- -D warnings

# The ctl property tests assert router dynamics that telemetry-off
# deliberately removes; this run proves they degrade to a clean no-op
# instead of failing the frozen router.
echo "==> cargo test -p hotcalls --test prop_ctl --features telemetry-off"
cargo test -p hotcalls --test prop_ctl --features telemetry-off -q

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

# Tier-1 tests only the root package. Every crate's unit tests and the
# hotcalls integration suites run here, and the hotcalls proptests run
# once more in release, where the ring engine's interleavings go at full
# speed.
echo "==> cargo test --workspace -q"
cargo test --workspace -q
echo "==> cargo test --release -p hotcalls --tests -q"
cargo test --release -p hotcalls --tests -q

# The load-curve harness self-checks its own claims (100k-connection
# multiplexing witnessed, HotCalls knee >= 2x SDK per app, open-loop
# tickets conserved) and exits non-zero on any miss.
echo "==> load_curves --smoke"
cargo run --release -p bench --bin load_curves -- /tmp/BENCH_load_check.json --smoke

# The streaming data-path harness self-checks its claims too (hot+sg
# bandwidth >= 2x the SDK port at every size including one working set
# over the EPC, adaptive chunker >= 0.9x the best static on the cliff,
# storage smoke tickets conserved + roundtrips) and exits non-zero on
# any miss.
echo "==> ablation_storage --smoke"
cargo run --release -p bench --bin ablation_storage -- /tmp/BENCH_storage_check.json --smoke

echo "==> all checks passed"
