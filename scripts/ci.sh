#!/usr/bin/env bash
# Tier-1 verification, exactly as ROADMAP.md specifies, pinned offline:
# every dependency is vendored under vendor/, so a network-less container
# must build and test clean. Every cargo call is --locked: a manifest change
# that would rewrite Cargo.lock or benchmark/Cargo.lock fails here instead
# of silently editing the lock file. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# The ten first-party packages are rustfmt-clean. vendor/* are stand-ins
# for published crates and keep their own layout; benchmark/ is its own
# workspace.
FIRST_PARTY=(-p gretel -p gretel-core -p gretel-model -p gretel-netcap
  -p gretel-sim -p gretel-telemetry -p gretel-bench -p gretel-hansel
  -p gretel-obs -p gretel-store)
cargo fmt --check "${FIRST_PARTY[@]}"

cargo build --release --offline --locked --workspace
cargo test -q --offline --locked --workspace

# Lint gate: every first-party crate and every target — libs, bins,
# tests, examples — must be clippy-clean, including clippy.toml's ban on
# hand-rolled `from_le_bytes` decoding. vendor/* are stand-ins for
# published crates and are not linted (--exclude drops them as targets,
# --no-deps as path dependencies).
# shellcheck disable=SC2046
cargo clippy --offline --locked --workspace --all-targets --no-deps \
  $(for v in vendor/*/; do printf -- '--exclude %s ' "$(basename "$v")"; done) \
  -- -D warnings

# Public-surface gate: every `pub mod`, re-export and `pub fn` / `const` /
# `static` of a library crate is named outside it, so anything only the
# crate itself uses is private and rustc's dead-code lint (denied above)
# sees it.
scripts/pub_surface.sh

# The standalone benchmark package (its own workspace, excluded from the
# one above) only sees the crates' public API: build and test it against
# the workspace as it now is, then smoke every workload, so an API change
# that breaks it fails here instead of at the perf gate. Writes only
# git-ignored files under benchmark/.
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
cargo test -q --offline --locked --manifest-path benchmark/Cargo.toml
cargo run --release --offline --locked -q --manifest-path benchmark/Cargo.toml \
  --bin gretel-benchmark -- run --check

# The experiment battery: every artifact under results/ is a pure function
# of (code, seed), so regenerate them all and require the committed copies
# byte for byte — a stale table cannot be committed. Every gate the
# experiments assert (EXPERIMENTS.md) runs on the way. A store is one log
# file: every FileStore directory the run leaves must hold exactly one.
STORE_ROOT="$(mktemp -d)"
trap 'rm -rf "$STORE_ROOT"' EXIT
cp -r results "$STORE_ROOT/committed"
cargo run --release --offline --locked -q -p gretel-bench --bin experiments -- \
  --store-dir "$STORE_ROOT/stores" >"$STORE_ROOT/experiments.log" ||
  { tail -n 40 "$STORE_ROOT/experiments.log" >&2; exit 1; }
diff -r "$STORE_ROOT/committed" results ||
  { echo "ci: results/ is stale: commit what \`experiments\` regenerated" >&2; exit 1; }
for d in "$STORE_ROOT"/stores/*/*/; do
  files="$(find "$d" -mindepth 1 | wc -l)"
  if [[ "$files" -ne 1 ]]; then
    echo "ci: store directory $d holds $files entries, expected one log file" >&2
    exit 1
  fi
done

# Markdown hygiene: intra-repo links resolve.
scripts/md_hygiene.sh

# Rustdoc must stay warning-free for the first-party crates, and the
# runnable doc-examples are part of the test surface.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --locked "${FIRST_PARTY[@]}"
cargo test -q --offline --locked --doc --workspace
