#!/usr/bin/env bash
# Public-surface gate, zero dependencies beyond bash, grep and awk: a
# first-party library crate exports only what code outside it names.
#
#   scripts/pub_surface.sh      # prints "crate file:line name", exits 1 if any
#
# Two rules, per crate under crates/ (the root facade package is itself the
# outside):
#   1. every name in lib.rs's `pub use` lists, and every `pub mod`, is named
#      outside the crate — a module by path (`gretel_sim::scenario::…` or
#      the facade's `gretel::sim::scenario::…`), a re-export by word;
#   2. every `pub fn` / `pub const` / `pub static` outside `#[cfg(test)]`
#      modules is named outside the crate, as a whole word.
# Outside is every other crate, src/, tests/, examples/, crates/*/tests,
# crates/*/src/bin and benchmark/. Comments do not count as naming
# something, except code blocks in doc comments, which rustdoc compiles as
# a separate crate (a crate's own doctests count as outside it). A common
# name such as `new` or `len` is always found; the gate accepts that. The
# same blind spot hides an uncalled method of one type that shares its name
# with another type's called method (two `validate`s): check those by hand.
set -euo pipefail
cd "$(dirname "$0")/.."

CRATES=(core model netcap sim telemetry store obs hansel bench)
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

# code FILE...: what the compiler or rustdoc reads as code — lines that
# are not `//` comments, plus the contents of non-`text` fenced blocks in
# `///` / `//!` docs. With docs_only=1, only the latter.
code() {
  awk -v docs_only="${docs_only:-0}" '
    FNR == 1 { fence = 0 }
    match($0, /^[ \t]*\/\/[\/!]/) {
      line = substr($0, RSTART + RLENGTH)
      if (line ~ /^[ \t]*```/) {
        fence = !fence
        rust = fence && line !~ /```[ \t]*text/
        next
      }
      if (fence && rust) print line
      next
    }
    /^[ \t]*\/\// { next }
    !docs_only { print }
  ' "$@"
}

mapfile -t ALL < <(find src tests examples crates benchmark/src \
  -name '*.rs' -not -path '*/target/*' | sort)

status=0
for c in "${CRATES[@]}"; do
  dir="crates/$c/src"
  inside=() outside=()
  for f in "${ALL[@]}"; do
    if [[ "$f" == "$dir/"* && "$f" != "$dir/bin/"* ]]; then
      inside+=("$f")
    else
      outside+=("$f")
    fi
  done
  { code "${outside[@]}"; docs_only=1 code "${inside[@]}"; } >"$WORK/corpus"
  grep -oE '[A-Za-z_][A-Za-z0-9_]*' "$WORK/corpus" | sort -u >"$WORK/words"
  # Module names after the crate's path: `gretel_c::m…`, or anywhere in a
  # `gretel_c::{…};` list (one line per use statement is not assumed).
  tr '\n' ' ' <"$WORK/corpus" |
    { grep -oE "(gretel_$c|gretel::$c)::([a-z_][a-z0-9_]*|\{[^;]*)" || true; } |
    sed -E "s/^(gretel_$c|gretel::$c):://" |
    { grep -oE '\b[a-z_][a-z0-9_]*\b' || true; } | sort -u >"$WORK/paths"

  # Candidates as "file:line kind name", kind = mod (named by path) or word.
  {
    awk '
      /^[ \t]*pub mod [a-z_][a-z0-9_]*;/ {
        name = $0; sub(/^[ \t]*pub mod /, "", name); sub(/;.*/, "", name)
        print FILENAME ":" FNR " mod " name
        next
      }
      /^[ \t]*pub use / { uses = 1 }
      uses {
        line = $0
        sub(/^[ \t]*pub use /, "", line)
        sub(/\/\/.*/, "", line)
        gsub(/[{};,]/, " ", line)
        n = split(line, tok, /[ \t]+/)
        for (i = 1; i <= n; i++) {
          if (tok[i] == "" || tok[i] == "as") continue
          if (tok[i + 1] == "as") continue
          name = tok[i]; sub(/.*::/, "", name)
          if (name != "" && name != "self" && name != "*")
            print FILENAME ":" FNR " word " name
        }
        if ($0 ~ /;/) uses = 0
      }
    ' "$dir/lib.rs"
    awk '
      function braces(line,    s) {
        s = line
        gsub(/\\\\/, "", s); gsub(/\\"/, "", s); gsub(/"[^"]*"/, "\"\"", s)
        gsub(/'"'"'[{}]'"'"'/, "", s); sub(/\/\/.*/, "", s)
        depth += gsub(/\{/, "{", s); depth -= gsub(/\}/, "}", s)
        if (index(s, "{")) opened = 1
      }
      FNR == 1 { pending = 0; skip = 0 }
      skip { braces($0); if (opened && depth <= 0) skip = 0; next }
      pending && /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?mod[ \t]/ {
        pending = 0; skip = 1; depth = 0; opened = 0
        braces($0)
        if ((opened && depth <= 0) || (!opened && /;[ \t]*$/)) skip = 0
        next
      }
      pending && /^[ \t]*#\[/ { next }
      { pending = 0 }
      /^[ \t]*#\[cfg\(test\)\][ \t]*$/ { pending = 1; next }
      match($0, /^[ \t]*pub ((const|unsafe|async) )*fn [A-Za-z_][A-Za-z0-9_]*/) ||
      match($0, /^[ \t]*pub (const|static( mut)?) [A-Za-z_][A-Za-z0-9_]*/) {
        n = split(substr($0, RSTART, RLENGTH), tok, /[ \t]+/)
        print FILENAME ":" FNR " word " tok[n]
      }
    ' "${inside[@]}"
  } >"$WORK/candidates"

  while read -r loc kind name; do
    if [[ "$kind" == mod ]]; then
      grep -qxF "$name" "$WORK/paths" && continue
    else
      grep -qxF "$name" "$WORK/words" && continue
    fi
    echo "$c $loc $name"
    status=1
  done <"$WORK/candidates"
done
exit "$status"
