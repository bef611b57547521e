#!/usr/bin/env bash
# Tier-1 verification, exactly as ROADMAP.md specifies, pinned offline:
# every dependency is vendored under vendor/, so a network-less container
# must build and test clean. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline --workspace
cargo test -q --offline --workspace

# Lint gate: every first-party crate and every target — libs, bins,
# tests, examples, benches (so a bench that stops compiling fails here) —
# must be clippy-clean, including clippy.toml's ban on hand-rolled
# `from_le_bytes` decoding. vendor/* are stand-ins for published crates
# and are not linted (--exclude drops them as targets, --no-deps as path
# dependencies).
# shellcheck disable=SC2046
cargo clippy --offline --workspace --all-targets --no-deps \
  $(for v in vendor/*/; do printf -- '--exclude %s ' "$(basename "$v")"; done) \
  -- -D warnings

# The standalone benchmark package (its own workspace, excluded from the
# one above) only sees the crates' public API: build and test it against
# the workspace as it now is, then smoke every workload, so an API change
# that breaks it fails here instead of at the perf gate. Writes only
# git-ignored files under benchmark/.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline -q --manifest-path benchmark/Cargo.toml \
  --bin gretel-benchmark -- run --check

# One tmp root for every store the smokes below put on disk, removed on
# exit.
STORE_ROOT="$(mktemp -d)"
trap 'rm -rf "$STORE_ROOT"' EXIT

# Crash-recovery smoke: one §7.2 scenario under worker kills, through the
# one kill driver over both backends (MemStore, FileStore) — two service
# kills with the log left clean, its tail torn, or its newest record
# corrupted between lifetimes; asserts zero diagnoses lost/duplicated and
# byte-identical output (see EXPERIMENTS.md). A store is one log file:
# every FileStore directory the run leaves behind must hold exactly one.
cargo run --release --offline -q -p gretel-bench --bin recovery -- \
  --smoke --store-dir "$STORE_ROOT/recovery"
for d in "$STORE_ROOT"/recovery/*/; do
  files="$(find "$d" -mindepth 1 | wc -l)"
  if [[ "$files" -ne 1 ]]; then
    echo "ci: store directory $d holds $files entries, expected one log file" >&2
    exit 1
  fi
done

# Tenant-sharded soak smoke: multi-tenant traffic through 1/2/4/8
# pipeline shards plus a FileStore-per-shard durable arm; asserts the
# merged diagnosis stream is byte-identical to the unsharded analyzer at
# every shard count and that peak RSS stays bounded (see EXPERIMENTS.md).
# Does not clobber results/soak.json.
cargo run --release --offline -q -p gretel-bench --bin soak -- \
  --smoke --store-dir "$STORE_ROOT/soak"

# Observability smoke: one §7.2 scenario with metrics off/disabled/enabled;
# asserts identical diagnoses, deterministic snapshots, export round trips
# and the instrumentation overhead gate (see EXPERIMENTS.md).
cargo run --release --offline -q -p gretel-bench --bin observability -- --smoke

# Failure-propagation smoke: one cascade scenario through the state-graph
# root-vs-symptom post-pass (perfect attribution asserted), one §7.2
# scenario re-run through the graph path as a byte-identity oracle, and a
# replay-determinism check (see EXPERIMENTS.md). Does not clobber
# results/propagation.json.
cargo run --release --offline -q -p gretel-bench --bin propagation -- --smoke

# Markdown hygiene: intra-repo links resolve and every results/*.json
# artifact is reachable from README.md or EXPERIMENTS.md.
scripts/md_hygiene.sh

# Rustdoc must stay warning-free for the first-party crates, and the
# runnable doc-examples are part of the test surface.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline \
  -p gretel -p gretel-core -p gretel-model -p gretel-netcap \
  -p gretel-sim -p gretel-telemetry -p gretel-bench -p gretel-hansel \
  -p gretel-obs -p gretel-store
cargo test -q --offline --doc --workspace
