#!/usr/bin/env bash
# Markdown hygiene gate, zero dependencies beyond POSIX tools: every
# intra-repo markdown link `[text](path)` in the curated docs resolves to a
# file or directory that exists (anchors and external URLs are skipped).
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

if [ "$fail" -ne 0 ]; then
  echo "md_hygiene: FAILED"
  exit 1
fi
echo "md_hygiene: ok"
