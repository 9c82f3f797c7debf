#!/usr/bin/env bash
# The full local gate, in the order a reviewer would want failures
# surfaced: does it build, is it correct, is it clean, does it copy,
# is it fast.
#
#   1. release build (the bench binaries need it anyway);
#   2. the root integration suites plus every crate's unit tests;
#   3. rustfmt over every first-party package (`vendor/` is excluded —
#      vendored sources stay byte-identical to upstream);
#   4. clippy over all targets with warnings denied — the crates' own
#      `deny(clippy::unwrap_used, clippy::expect_used)` attributes make
#      panic paths hard errors here too;
#   5. the clone budget (no deep copies creeping into hot paths);
#   6. the quick benchmark smoke with all perf gates (thread sweep,
#      columnar, VM, fused pipeline, chunk cache, obs overhead, batch,
#      WAL), each gating medians of repeated interleaved runs.
#
# Usage: scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release

echo "== tests =="
cargo test -q
cargo test --workspace -q

echo "== rustfmt =="
# First-party packages only: vendor/* are workspace members (offline
# builds) but their sources must stay byte-identical to upstream.
FMT_PKGS=(-p plabi)
for d in crates/*; do
  FMT_PKGS+=(-p "$(sed -n 's/^name = "\(.*\)"/\1/p' "$d/Cargo.toml" | head -1)")
done
cargo fmt --check "${FMT_PKGS[@]}"

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== clone budget =="
scripts/clone_budget.sh

echo "== benchmark smoke =="
scripts/bench_smoke.sh

echo "ci OK"
