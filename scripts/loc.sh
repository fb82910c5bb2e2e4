#!/usr/bin/env bash
# Production Rust lines per crate and in total.
#
# Counts the lines of every git-tracked `crates/*/src/**/*.rs` up to (not
# including) its first `#[cfg(test)]` line, so inline test modules and
# everything under `tests/`, `benches/` and `examples/` stay out. The
# figure is informational, not a gate: it is how a change reports
# whether the workspace grew or shrank.
#
# Usage: scripts/loc.sh [REV]   (default: the working tree)

set -euo pipefail
cd "$(dirname "$0")/.."

rev=${1:-}
if [ -n "$rev" ]; then
    files=$(git ls-tree -r --name-only "$rev" -- crates)
    show() { git show "$rev:$1"; }
else
    files=$(git ls-files -- crates)
    show() { cat "$1"; }
fi

total=0
for crate in $(printf '%s\n' "$files" | awk -F/ '$3 == "src" && /\.rs$/ { print $2 }' | sort -u); do
    n=0
    while IFS= read -r src; do
        # Read to the end (no early `exit`): a writer cut off mid-file
        # would fail the pipeline under `pipefail`.
        lines=$(show "$src" | awk '/#\[cfg\(test\)\]/ { done = 1 } !done { n++ } END { print n + 0 }')
        n=$((n + lines))
    done < <(printf '%s\n' "$files" | grep -E "^crates/$crate/src/.*\.rs$")
    printf '%-12s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-12s %6d\n' total "$total"
