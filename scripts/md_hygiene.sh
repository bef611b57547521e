#!/usr/bin/env bash
# Markdown hygiene gate, zero dependencies beyond POSIX tools:
#   1. every intra-repo markdown link `[text](path)` in the curated docs
#      resolves to a file or directory that exists (anchors and external
#      URLs are skipped);
#   2. every Rust identifier or path the curated docs put in backticks
#      still exists. An identifier is a token with `::`, an `_`, or a
#      CamelCase shape; each `::` segment must occur as a whole word in
#      crates/ src/ tests/ examples/ benchmark/src/ scripts/, or be the
#      name of a file in the repository without its extension. A `*` or a `<name>`
#      placeholder matches any word characters. ROADMAP.md names planned
#      work and is exempt; a paper name that looks like an identifier is
#      written as plain text, not code;
#   3. every backticked `*.rs` name in those docs is a file: a bare name
#      must be some file's name, a path (`netcap/src/frame.rs`) the tail of
#      some file's path;
#   4. no doc but ROADMAP.md cites a ROADMAP item by number: the items are
#      renumbered at every re-anchor, so a doc names the work instead.
# (That results/*.json is exactly what the experiment table produces is a
# unit test in crates/bench/src/lib.rs.)
#
# Run from anywhere; operates on the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# The curated doc set: everything a reader is routed through. Scratch
# files (ISSUE.md, SNIPPETS.md, PAPERS.md) are not part of the contract.
DOCS=(README.md EXPERIMENTS.md DESIGN.md ARCHITECTURE.md ROADMAP.md results/README.md)

for doc in "${DOCS[@]}"; do
  [ -f "$doc" ] || { echo "md_hygiene: missing doc $doc"; fail=1; continue; }
  dir=$(dirname "$doc")
  # Inline links only: [text](target). Reference-style links are not used
  # in this repo. One link per line via grep -o.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|\#*) continue ;;
    esac
    # Strip a trailing #anchor from relative links.
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ]; then
      echo "md_hygiene: $doc links to missing path: $target"
      fail=1
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$doc" | sed 's/.*(\(.*\))/\1/')
done

# Rule 2: the words of the code, plus every file's stem.
words="$(mktemp)"
files="$(mktemp)"
trap 'rm -f "$words" "$files"' EXIT
{
  find crates src tests examples benchmark/src scripts -type f \
    \( -name '*.rs' -o -name '*.sh' -o -name '*.toml' \) -not -path '*/target/*' \
    -exec cat {} + | grep -oE '[A-Za-z_][A-Za-z0-9_]*'
  find . \( -name target -o -name .git \) -prune -o -type f -print |
    sed -E 's#.*/##; s#\.[^.]*$##'
} | sort -u >"$words"
for doc in "${DOCS[@]}"; do
  [ "$doc" = ROADMAP.md ] && continue
  [ -f "$doc" ] || continue
  # Inline code spans outside fenced blocks, then identifier-shaped tokens.
  while IFS= read -r token; do
    IFS=: read -ra segments <<<"${token//::/:}"
    for seg in "${segments[@]}"; do
      if ! grep -qxE "${seg//\*/[A-Za-z0-9_]*}" "$words"; then
        echo "md_hygiene: $doc names \`$token\`, which the code does not name ($seg)"
        fail=1
        break
      fi
    done
  done < <(awk '/^[ \t]*```/ { fence = !fence; next } !fence' "$doc" |
    grep -oE '`[^`]+`' | sed -E 's/<[A-Za-z_]+>/*/g' |
    grep -oE '[A-Za-z_*][A-Za-z0-9_*]*(::[A-Za-z_*][A-Za-z0-9_*]*)*' |
    grep -E '::|_|^[A-Z][a-z0-9]+[A-Z]' | sort -u)
done

# Rules 3 and 4: every Rust file's path from the root, with a leading `/`
# so a name matches a whole path segment.
find . \( -name target -o -name .git \) -prune -o -type f -name '*.rs' -print |
  sed 's#^\.##' >"$files"
for doc in "${DOCS[@]}"; do
  [ "$doc" = ROADMAP.md ] && continue
  [ -f "$doc" ] || continue
  while IFS= read -r name; do
    if ! awk -v t="/$name" 'substr($0, length($0) - length(t) + 1) == t { found = 1; exit }
      END { exit !found }' "$files"; then
      echo "md_hygiene: $doc names \`$name\`, which is no file in the repository"
      fail=1
    fi
  done < <(awk '/^[ \t]*```/ { fence = !fence; next } !fence' "$doc" |
    grep -oE '`[^`]+`' | grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_]\.rs\b' | sort -u)
  if grep -nE 'ROADMAP (item|items) [0-9]' "$doc"; then
    echo "md_hygiene: $doc cites ROADMAP items by number (above): name the work instead"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "md_hygiene: FAILED"
  exit 1
fi
echo "md_hygiene: ok"
