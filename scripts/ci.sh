#!/usr/bin/env bash
# CI gate: the tier-1 contract plus the static-analysis, DAG-scenario and
# benchmark self-test gates, in one short command. This is the subset of scripts/smoke.sh a
# PR must keep green before anything else is worth running.
#
#   scripts/ci.sh

set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier 1: build (release) =="
cargo build --release

echo "== tier 1: tests =="
cargo test -q

echo "== gate: workspace tests (crate unit tests, detlint mutation tests, servers/tests) =="
cargo test --workspace --release -q

echo "== gate: detlint (determinism + coverage + counter conservation) =="
cargo run --release -p detlint -- check --json results/detlint-report.json

echo "== gate: dag scenario (drift check + dag/span audits) =="
cargo run --release -p asyncinv-bench --bin dag_study -- \
    --quick --scenario scenarios/dag_social.json

echo "== gate: perfbench builds against the public API and passes its self-tests =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "ci OK"
