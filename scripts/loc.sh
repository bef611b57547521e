#!/usr/bin/env bash
# Count the lines of Rust that are program: non-blank lines that are not
# `//` comments (doc comments included), outside `#[cfg(test)]` modules.
# Prints one "<count> <file>" line per file, then "<total> total".
#
#   scripts/loc.sh crates/core/src/engine.rs crates/netcap/src/*.rs
#
# A `#[cfg(test)]` attribute followed (after any further attributes) by
# `mod … {` skips through the matching close brace; braces inside string
# and char literals and after a `//` are not counted. `#[cfg(test)]` on
# anything but a module is an ordinary line.
set -euo pipefail

if [[ $# -eq 0 ]]; then
  echo "usage: scripts/loc.sh FILE..." >&2
  exit 2
fi

awk '
  function braces(line,    s) {
    s = line
    gsub(/\\\\/, "", s)
    gsub(/\\"/, "", s)
    gsub(/"[^"]*"/, "\"\"", s)
    gsub(/'"'"'[{}]'"'"'/, "", s)
    sub(/\/\/.*/, "", s)
    depth += gsub(/\{/, "{", s)
    depth -= gsub(/\}/, "}", s)
    if (index(s, "{")) opened = 1
  }
  function report() {
    count += pending
    printf "%6d %s\n", count, file
    total += count
  }
  FNR == 1 {
    if (NR != 1) report()
    file = FILENAME; count = 0; pending = 0; skip = 0
  }
  skip {
    braces($0)
    if (opened && depth <= 0) skip = 0
    next
  }
  pending && /^[[:space:]]*(pub(\([a-z]+\))?[[:space:]]+)?mod[[:space:]]/ {
    pending = 0; skip = 1; depth = 0; opened = 0
    braces($0)
    if ((opened && depth <= 0) || (!opened && /;[[:space:]]*$/)) skip = 0
    next
  }
  pending && /^[[:space:]]*#\[/ { pending++; next }
  pending && !/^[[:space:]]*($|\/\/)/ { count += pending; pending = 0 }
  /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { pending = 1; next }
  /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
  { count++ }
  END {
    if (NR > 0) report()
    printf "%6d total\n", total
  }
' "$@"
