#!/usr/bin/env bash
# Rust lines added and removed since a base commit, in three groups:
#   library  non-test code,
#   tests    files under a `tests/` directory, plus the `#[cfg(test)]`
#            modules inside library files,
#   benches  files under a `benches/` directory or `perfbench/`.
# Compares <base> with the working tree (a `git diff --numstat` wrapper);
# new files count once they are staged with `git add`.
#
# Usage: scripts/loc.sh <base>
set -euo pipefail
cd "$(dirname "$0")/.."
base=${1:?usage: scripts/loc.sh <base>}

# "start end" line ranges of the `#[cfg(test)]` modules in the Rust source
# on stdin: a column-0 attribute on a `mod` item, through the column-0 `}`
# that closes it (or the item itself for `mod name;`).
test_ranges() {
    awk '
        /^#\[cfg\(test\)\]/ { attr = NR; next }
        attr && /^(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+;/ { print attr, NR; attr = 0; next }
        attr && /^(pub(\([a-z]+\))? )?mod / { start = attr }
        { attr = 0 }
        start && /^}/ { print start, NR; start = 0 }
    '
}

# "added removed" of a library file's diff lines that fall inside its
# test modules (old ranges for removed lines, new ranges for added ones).
test_share() {
    local f=$1 old="" new=""
    if git cat-file -e "$base:$f" 2>/dev/null; then
        old=$(git show "$base:$f" | test_ranges | tr '\n' ' ')
    fi
    if [ -f "$f" ]; then
        new=$(test_ranges <"$f" | tr '\n' ' ')
    fi
    git diff -U0 --no-renames "$base" -- "$f" | awk -v old="$old" -v new="$new" '
        function inside(ranges, n,   r, k, i) {
            k = split(ranges, r, " ")
            for (i = 1; i < k; i += 2) if (n >= r[i] && n <= r[i + 1]) return 1
            return 0
        }
        /^@@/ {
            split($2, o, ","); split($3, w, ",")
            ol = substr(o[1], 2) + 0; nl = substr(w[1], 2) + 0; hunk = 1; next
        }
        !hunk { next }
        /^-/ { if (inside(old, ol)) del++; ol++; next }
        /^\+/ { if (inside(new, nl)) add++; nl++; next }
        END { print add + 0, del + 0 }
    '
}

git diff --numstat --no-renames "$base" -- '*.rs' | {
    declare -A add=([library]=0 [tests]=0 [benches]=0) del=([library]=0 [tests]=0 [benches]=0)
    while read -r a d f; do
        case "$f" in
        perfbench/* | */benches/*) g=benches ;;
        tests/* | */tests/*) g=tests ;;
        *) g=library ;;
        esac
        if [ "$g" = library ]; then
            read -r ta td < <(test_share "$f")
            add[tests]=$((add[tests] + ta))
            del[tests]=$((del[tests] + td))
            a=$((a - ta))
            d=$((d - td))
        fi
        add[$g]=$((add[$g] + a))
        del[$g]=$((del[$g] + d))
    done
    printf '%-8s %8s %8s %8s\n' group added removed net
    for g in library tests benches; do
        printf '%-8s %8d %8d %+8d\n' "$g" "${add[$g]}" "${del[$g]}" $((add[$g] - del[$g]))
    done
}
