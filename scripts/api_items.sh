#!/usr/bin/env bash
# Prints each library crate's public item count, read from the "List of
# all items" page (`all.html`) rustdoc writes for it, and their total.
# It reports and never gates: a missing page is named, not fatal.
#
# Usage: scripts/api_items.sh [DOC_DIR]
#   DOC_DIR defaults to target/doc; build it first with
#   `cargo doc --workspace --no-deps --offline`.
set -euo pipefail
cd "$(dirname "$0")/.."
doc="${1:-target/doc}"

total=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
  dir=$(dirname "$manifest")
  [ -f "$dir/src/lib.rs" ] || continue
  name=$(awk -F'"' '/^\[package\]/ { p = 1 } p && /^name[[:space:]]*=/ { print $2; exit }' "$manifest")
  page="$doc/${name//-/_}/all.html"
  if [ ! -f "$page" ]; then
    echo "$name: no $page"
    continue
  fi
  # Every item is one `<li><a href="path">` entry; the sidebar's section
  # links (`href="#…"`) are not items.
  count=$({ grep -o '<li><a href="[^#"]' "$page" || true; } | wc -l)
  printf '%-24s %5d\n' "$name" "$count"
  total=$((total + count))
done
printf '%-24s %5d\n' total "$total"
