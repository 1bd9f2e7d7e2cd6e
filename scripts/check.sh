#!/usr/bin/env bash
# Full local gate: build, tests, lints, formatting, smoke, and the
# benchmark's seed-2018 pins.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo build --release (perfbench, so an API change that breaks the benchmark fails here)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> smoke tier (scripts/smoke.sh)"
scripts/smoke.sh

echo "==> perfbench pin tier (seed 2018: each workload's results must match its pinned digests)"
for workload in expert_adaptive ilcnn_input_faults daemon_mixed_plans; do
  summary=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
    --workload "$workload" --seed 2018 --seconds 2 --trace 0 | tail -n 1)
  if [[ "$summary" != *'"correct":true'* || "$summary" != *'"failed":0,'* ]]; then
    echo "FAIL: perfbench $workload at seed 2018: $summary" >&2
    exit 1
  fi
  echo "    $workload: correct, 0 failed"
done

echo "OK: all checks passed"
