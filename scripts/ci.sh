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

# Scratch space for the steps below, removed on exit.
STORE_ROOT="$(mktemp -d)"
trap 'rm -rf "$STORE_ROOT"' EXIT

# What the tests only compile also runs: every example, every canned
# scenario of the CLI, and a capture -> analyze round trip. Any non-zero
# exit fails here. Files they write (the pcap example writes to the temp
# dir) land in the scratch space.
RUN_DIR="$STORE_ROOT/run"
mkdir "$RUN_DIR"
run() { cargo run --release --offline --locked -q "$@" >/dev/null; }
for example in examples/*.rs; do
  TMPDIR="$RUN_DIR" run --example "$(basename "$example" .rs)"
done
for name in image-upload neutron-latency linuxbridge ntp no-compute mysql rabbitmq; do
  run --bin gretel -- scenario "$name"
done
run --bin gretel -- capture "$RUN_DIR/capture.pcap"
run --bin gretel -- analyze "$RUN_DIR/capture.pcap"

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
check_log="$(cargo run --release --offline --locked -q --manifest-path benchmark/Cargo.toml \
  --bin gretel-benchmark -- run --check)"
printf '%s\n' "$check_log"

# The check-size diagnosis digests are pinned: `run --check` prints one
# `<workload>: … digest <hex>` line per workload, and a change that moves
# any of them fails here rather than passing unnoticed.
grep -E '^[a-z]+: .* digest [0-9a-f]+$' <<<"$check_log" |
  sed -E 's/^([a-z]+): .* digest ([0-9a-f]+)$/\1 \2/' |
  diff <(grep -v '^#' scripts/check_digests.txt) - ||
  { echo "ci: a check-size digest moved: if intended, update scripts/check_digests.txt and explain the move in CHANGES.md" >&2; exit 1; }

# The paired-run script that perf claims are measured with: one revision
# (the checkout) against itself, one pair, one short workload. Its output
# block must parse and hold that pair, and the exact values must agree.
scripts/pairs.sh . . --pairs 1 --workloads wire --seconds 1 |
  jq -e '.workloads.wire.metrics.msgs_per_s.of == 1 and .workloads.wire.exact_equal' >/dev/null

# The check-size runs hold 11 checkpoint boundaries or fewer, so they never
# build a long chain of delta records. The full-size `durable` and `restart`
# workloads do (bases with tens of deltas after them, restores that replay
# a chain), and the full-size `wire` and `tenants` workloads push the whole
# stream through the sequence-stamped, resequencing receive path: run each
# once per seed on a one-second budget. The last line is the result object,
# which must report a correct run with no failed operation.
mkdir "$STORE_ROOT/bench"
for seed in 42 7; do
  for workload in durable restart wire tenants; do
    result="$(cargo run --release --offline --locked -q --manifest-path benchmark/Cargo.toml \
      --bin gretel-benchmark -- workload --workload "$workload" --seed "$seed" --seconds 1 \
      --store-dir "$STORE_ROOT/bench" | tail -n 1)"
    { grep -q '"correct":true' <<<"$result" && grep -Eq '"failed":0[,}]' <<<"$result"; } ||
      { echo "ci: the full-size $workload workload failed at seed $seed: $result" >&2; exit 1; }
  done
done

# The experiment battery: every artifact under results/ is a pure function
# of (code, seed), so regenerate them all and require the committed copies
# byte for byte — a stale table cannot be committed. Every gate the
# experiments assert (EXPERIMENTS.md) runs on the way. A store is one log
# file: every FileStore directory the run leaves must hold exactly one, and
# it must be `log.v2` (a stray `log` is the old checksum's format).
cp -r results "$STORE_ROOT/committed"
cargo run --release --offline --locked -q -p gretel-bench --bin experiments -- \
  --store-dir "$STORE_ROOT/stores" >"$STORE_ROOT/experiments.log" ||
  { tail -n 40 "$STORE_ROOT/experiments.log" >&2; exit 1; }
diff -r "$STORE_ROOT/committed" results ||
  { echo "ci: results/ is stale: commit what \`experiments\` regenerated" >&2; exit 1; }
for d in "$STORE_ROOT"/stores/*/*/; do
  entries="$(find "$d" -mindepth 1 -printf '%f\n')"
  if [[ "$entries" != "log.v2" ]]; then
    echo "ci: store directory $d holds [${entries//$'\n'/ }], expected exactly log.v2" >&2
    exit 1
  fi
done

# Markdown hygiene: intra-repo links resolve.
scripts/md_hygiene.sh

# Rustdoc must stay warning-free for the first-party crates, and the
# runnable doc-examples are part of the test surface.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --locked "${FIRST_PARTY[@]}"
cargo test -q --offline --locked --doc --workspace
