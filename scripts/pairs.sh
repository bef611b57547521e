#!/usr/bin/env bash
# Paired wall-clock comparison of two revisions' benchmark:
#
#   scripts/pairs.sh PARENT CHANGE [--pairs N] [--seconds S] [--seed N]
#                    [--workloads NAME...]
#
# PARENT and CHANGE are git revisions, or `.` for the checkout as it
# stands. Each revision is exported with `git archive` into a temporary
# directory and its `benchmark/` built offline into a target directory of
# its own (`.` builds in place); one revision given twice is built once.
# Each pair then runs `gretel-benchmark workload` once per side on every
# workload, back to back, alternating which side goes first, so host drift
# hits both sides alike. Defaults: 10 pairs, seed 42, every workload
# `BENCHMARK.json` lists, and no `--seconds`, so each binary runs its
# contract's `run_seconds` (the JSON then reports `seconds: null`).
#
# Of each child it keeps the `record ` line of its stdout (metrics,
# quartiles and `diag_digest`) and the `correct` flag of its last line.
# Stdout is one JSON object: per workload
# and metric, each side's median and quartiles, the pairs the change won
# (strictly better in the metric's direction) and the quartiles of the
# per-pair change/parent ratio. A table of the same goes to stderr.
#
# Exit status 1 when a run is not correct, or when `diag_digest`,
# `hit_share` or `theta_mean` differ between any two runs of a workload:
# those are exact values, and a change that moves one is not a timing
# question. The JSON is printed either way.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
  sed -n '2,4p' "$0" | sed 's/^# //' >&2
  exit 2
}

[[ $# -ge 2 ]] || usage
parent_rev="$1"
change_rev="$2"
shift 2
pairs=10
seconds=null
seed=42
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
while [[ $# -gt 0 ]]; do
  case "$1" in
  --pairs) pairs="$2"; shift 2 ;;
  --seconds) seconds="$2"; shift 2 ;;
  --seed) seed="$2"; shift 2 ;;
  --workloads)
    shift
    workloads=()
    while [[ $# -gt 0 && "$1" != --* ]]; do
      workloads+=("$1")
      shift
    done
    ;;
  *) usage ;;
  esac
done
[[ "$pairs" =~ ^[1-9][0-9]*$ && ${#workloads[@]} -gt 0 ]] || usage
seconds_arg=()
[[ "$seconds" == null ]] || seconds_arg=(--seconds "$seconds")

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

# The commit a revision names, or `.` for the checkout.
resolve() {
  if [[ "$1" == "." ]]; then
    echo .
  else
    git rev-parse --verify --quiet "$1^{commit}" ||
      { echo "pairs: no revision $1" >&2; exit 2; }
  fi
}

# Build a resolved revision's benchmark and print the path of its binary.
build() {
  local rev="$1" src target
  if [[ "$rev" == "." ]]; then
    src="$PWD"
    target="${CARGO_TARGET_DIR:-$PWD/benchmark/target}"
  else
    src="$work/src-$rev"
    target="$work/target-$rev"
    if [[ ! -d "$src" ]]; then
      mkdir "$src"
      git archive "$rev" | tar -x -C "$src"
    fi
  fi
  echo "pairs: building $rev" >&2
  CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path "$src/benchmark/Cargo.toml" >&2
  echo "$target/release/gretel-benchmark"
}

parent="$(resolve "$parent_rev")"
change="$(resolve "$change_rev")"
parent_bin="$(build "$parent")"
change_bin="$(build "$change")"

# One run: append `{pair, side, workload, correct, digest, record}` to the
# run log.
runs="$work/runs.jsonl"
: >"$runs"
run_one() {
  local pair="$1" side="$2" workload="$3" bin="$4" out record last
  out="$work/out"
  mkdir -p "$work/stores"
  "$bin" workload --workload "$workload" --seed "$seed" "${seconds_arg[@]}" \
    --store-dir "$work/stores" >"$out" 2>/dev/null || true
  record="$(grep '^record ' "$out" | tail -n 1 | sed 's/^record //')"
  last="$(tail -n 1 "$out")"
  jq -cn --argjson pair "$pair" --arg side "$side" --arg workload "$workload" \
    --arg record "${record:-null}" --arg last "$last" '
    ($record | try fromjson catch null) as $r
    | {pair: $pair, side: $side, workload: $workload,
       correct: (($last | try fromjson catch {}) | .correct == true),
       digest: $r.diag_digest, record: $r}' >>"$runs"
}

for ((i = 1; i <= pairs; i++)); do
  if ((i % 2)); then order=(parent change); else order=(change parent); fi
  for workload in "${workloads[@]}"; do
    for side in "${order[@]}"; do
      echo "pairs: pair $i/$pairs $workload $side" >&2
      if [[ "$side" == parent ]]; then
        run_one "$i" "$side" "$workload" "$parent_bin"
      else
        run_one "$i" "$side" "$workload" "$change_bin"
      fi
    done
  done
done

# Aggregate: quartiles by linear interpolation between order statistics.
jq -s --arg parent "$parent" --arg change "$change" --argjson pairs "$pairs" \
  --argjson seconds "$seconds" --argjson seed "$seed" '
  def q($p): sort as $a | ($a | length) as $n
    | if $n == 0 then null
      else (($n - 1) * $p) as $x | ($x | floor) as $lo
        | $a[$lo] + ($a[[$lo + 1, $n - 1] | min] - $a[$lo]) * ($x - $lo)
      end;
  def spread: {median: q(0.5), q1: q(0.25), q3: q(0.75)};
  def lower: IN("setup_s", "cpu_us_per_msg", "peak_rss_mb",
                "store_bytes_per_msg", "fail_share");
  def value($name): .record.metrics[]? | select(.name == $name) | .value;
  group_by(.workload) | map(
    . as $runs | $runs[0].workload as $w
    | ([$runs[] | .record.metrics[]?.name] | unique) as $names
    | {key: $w, value: {
        correct: all($runs[]; .correct),
        digests: ([$runs[].digest] | unique),
        exact_equal: (([$runs[].digest] | unique | length) == 1
          and ([$runs[] | value("hit_share")] | unique | length) <= 1
          and ([$runs[] | value("theta_mean")] | unique | length) <= 1),
        metrics: ($names | map(. as $m
          | [range(1; $pairs + 1) as $i
             | [$runs[] | select(.pair == $i)] as $pr
             | {p: ($pr[] | select(.side == "parent") | value($m)),
                c: ($pr[] | select(.side == "change") | value($m))}] as $by_pair
          | {key: $m, value: {
              better: (if ($m | lower) then "lower" else "higher" end),
              parent: ([$by_pair[].p] | spread),
              change: ([$by_pair[].c] | spread),
              won: ([$by_pair[] | select(if ($m | lower) then .c < .p else .c > .p end)]
                    | length),
              of: ($by_pair | length),
              ratio: ([$by_pair[] | select(.p != 0) | .c / .p] | spread),
              runs: {parent: [$by_pair[].p], change: [$by_pair[].c]}}})
          | from_entries)}})
  | from_entries
  | {parent: $parent, change: $change, pairs: $pairs, seconds: $seconds,
     seed: $seed, workloads: .}' "$runs" >"$work/block.json"

jq -r '.workloads | to_entries[] | .key as $w | .value.metrics | to_entries[]
  | [$w, .key, .value.parent.median, .value.change.median,
     (.value.ratio.median // "-"), "\(.value.won)/\(.value.of)"] | @tsv' \
  "$work/block.json" |
  awk 'BEGIN { printf "%-9s %-20s %14s %14s %8s %6s\n", "workload", "metric", "parent", "change", "ratio", "won" }
    { printf "%-9s %-20s %14.6g %14.6g %8s %6s\n", $1, $2, $3, $4, ($5 == "-" ? "-" : sprintf("%.3f", $5)), $6 }' >&2
cat "$work/block.json"

status=0
if ! jq -e '[.workloads[].correct] | all' "$work/block.json" >/dev/null; then
  echo "pairs: a run was not correct" >&2
  status=1
fi
if ! jq -e '[.workloads[].exact_equal] | all' "$work/block.json" >/dev/null; then
  jq -r '.workloads | to_entries[] | select(.value.exact_equal | not)
    | "pairs: \(.key): diag_digest, hit_share or theta_mean differ"' \
    "$work/block.json" >&2
  status=1
fi
exit "$status"
