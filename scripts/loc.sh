#!/usr/bin/env bash
# Non-test code lines per crate and for the workspace:
#
#   scripts/loc.sh [<checkout>]
#
# Counts the lines of every workspace package's `src/` tree (the root
# `nisq` package and each `crates/*` package) that are neither blank nor
# comments (`//`, `///`, `//!` and `/* ... */` blocks), leaving out every
# `#[cfg(test)]` item wherever it stands in a file: test modules and
# test-only functions alike. Integration tests, examples, shims and
# perfbench are not counted. <checkout> defaults to this repository, so the
# same script measures a copy of another revision, say one made with
# `git archive`.
set -euo pipefail

ROOT="${1:-$(dirname "$0")/..}"
[[ -d "$ROOT/crates" ]] || { echo "usage: scripts/loc.sh [<checkout>]" >&2; exit 2; }

# count <dir>: non-test code lines of the .rs files under <dir>.
count() {
    find "$1" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        FNR == 1 { skip = 0; inblock = 0; term = "" }
        {
            line = $0
            if (inblock) {
                if (line !~ /\*\//) next
                inblock = 0
                sub(/.*\*\//, "", line)
            }
            trimmed = line
            gsub(/^[ \t]+|[ \t]+$/, "", trimmed)
            if (!skip && trimmed ~ /^#\[cfg\(test\)\]/) {
                # Skip the item the attribute applies to: up to the brace
                # that closes its body, or its `;` if it has none.
                skip = 1; depth = 0; opened = 0
                sub(/^[ \t]*#\[cfg\(test\)\]/, "", line)
            }
            if (skip) {
                # Keep only the text outside string and char literals and
                # comments. A string, raw strings included, may span lines:
                # `term` holds the closing delimiter of the one still open.
                s = ""
                for (i = 1; i <= length(line); i++) {
                    c = substr(line, i, 1)
                    if (term != "") {
                        if (esc && c == "\\") i++
                        else if (substr(line, i, length(term)) == term) {
                            i += length(term) - 1
                            term = ""
                        }
                        continue
                    }
                    if (c == "/" && substr(line, i + 1, 1) == "/") break
                    if (c == "\"") { term = "\""; esc = 1; continue }
                    if (match(substr(line, i), /^r#*"/)) {
                        term = "\"" substr(line, i + 1, RLENGTH - 2)
                        esc = 0
                        i += RLENGTH - 1
                        continue
                    }
                    if (c == "'"'"'") {
                        if (substr(line, i + 1, 1) == "\\") {
                            i += 2 + index(substr(line, i + 3), "'"'"'")
                            continue
                        }
                        if (substr(line, i + 2, 1) == "'"'"'") { i += 2; continue }
                    }
                    s = s c
                }
                opens = gsub(/\{/, "{", s)
                closes = gsub(/\}/, "}", s)
                depth += opens - closes
                if (opens > 0) opened = 1
                if ((opened && depth <= 0) || (!opened && s ~ /;[ \t]*$/)) skip = 0
                next
            }
            if (trimmed == "" || trimmed ~ /^\/\//) next
            if (trimmed ~ /^\/\*/) {
                if (trimmed !~ /\*\//) inblock = 1
                next
            }
            n++
        }
        END { print n + 0 }
    '
}

total=0
row() {
    printf '%-14s %7d\n' "$1" "$2"
    total=$((total + $2))
}
row nisq "$(count "$ROOT/src")"
for dir in "$ROOT"/crates/*/; do
    name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$dir/Cargo.toml" | head -n 1)
    row "$name" "$(count "$dir/src")"
done
printf '%-14s %7d\n' workspace "$total"
