#!/usr/bin/env bash
# Entry point for an external driver, run from the root of a checkout:
#
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Builds both binaries from source (into $CARGO_TARGET_DIR when set), then
# runs one workload in the untraced binary (--trace 0: end-to-end metrics) or
# the traced one (--trace 1: per-layer metrics). The last line of output is
# the result object. File stores stay inside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"

trace=0
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  if [[ "${args[i]}" == "--trace" ]]; then
    trace="${args[i + 1]:-0}"
  fi
done

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

# CARGO_TARGET_DIR may be relative to the directory cargo was started in.
bin="$(cd "$target/release" && pwd)/gretel-benchmark"
if [[ "$trace" == "1" ]]; then
  bin="$bin-trace"
fi
exec "$bin" workload --store-dir "$here/results/stores" "$@"
