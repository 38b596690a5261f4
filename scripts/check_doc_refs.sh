#!/usr/bin/env bash
# Fails when README.md or DESIGN.md reference repo paths that do not exist.
# Checked path prefixes: src/ tests/ bench/ perfbench/ examples/ scripts/
# .github/
# (build/ outputs are intentionally not checked — they only exist after a
# build). Supports the `foo.{hpp,cpp}` brace shorthand used in the docs.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0
for doc in README.md DESIGN.md; do
  [ -f "$doc" ] || { echo "missing doc: $doc"; fail=1; continue; }
  refs=$(grep -oE '(src|tests|perfbench|bench|examples|scripts|\.github)/[A-Za-z0-9_./{},*-]+' "$doc" \
         | sed 's/[.,;:)]*$//' | sort -u || true)
  for ref in $refs; do
    # Expand foo.{hpp,cpp} into both members.
    if [[ "$ref" == *'{'* ]]; then
      base="${ref%%\{*}"; rest="${ref#*\{}"; exts="${rest%%\}*}"
      IFS=',' read -ra parts <<< "$exts"
      expanded=()
      for p in "${parts[@]}"; do expanded+=("${base}${p}"); done
    else
      expanded=("$ref")
    fi
    for path in "${expanded[@]}"; do
      # A reference is valid when the path exists, it names a source file
      # without extension (`bench/fig1_gantt` -> bench/fig1_gantt.cpp), or
      # it is a glob that matches something (`tests/test_*.cpp`).
      if [ -e "$path" ] || [ -e "$path.cpp" ] || compgen -G "$path" > /dev/null; then
        continue
      fi
      echo "$doc references nonexistent path: $path"
      fail=1
    done
  done
done

# Source comments cite design sections as "DESIGN.md §N" (optionally
# §N.M); every cited integer section must still exist as a "## N." heading,
# or the comment silently points at nothing after a renumbering.
sections=$(grep -oE '^## [0-9]+\.' DESIGN.md | grep -oE '[0-9]+' | sort -un)
cited=$(grep -rhoE 'DESIGN\.md §[0-9]+' src tests bench examples scripts \
        | grep -oE '[0-9]+$' | sort -un || true)
for sec in $cited; do
  if ! printf '%s\n' "$sections" | grep -qx "$sec"; then
    echo "source comments cite DESIGN.md §$sec but DESIGN.md has no '## $sec.' heading"
    fail=1
  fi
done

# Every rule name referenced by an MRA_NOLINT suppression anywhere in the
# repo must exist in the linter's rule registry (scripts/mra_lint.py
# --list-rules) — a renamed rule must not leave dangling suppressions that
# silently stop suppressing.
rules=$(python3 scripts/mra_lint.py --list-rules)
nolint_refs=$(grep -rhoE 'MRA_NOLINT\(([^)]*)\)' \
                src tests bench examples 2>/dev/null \
              | sed -E 's/^MRA_NOLINT\(//; s/\)$//' | tr ',' '\n' \
              | sed -E 's/^ +//; s/ +$//' | sort -u || true)
for rule in $nolint_refs; do
  if ! printf '%s\n' "$rules" | grep -qx "$rule"; then
    # The fixtures deliberately reference a nonexistent rule to prove the
    # linter rejects it; they are the linter's test inputs, not users of it.
    if grep -rlE "MRA_NOLINT\([^)]*\b$rule\b" src tests bench examples \
         | grep -qv '^tests/lint_fixtures/'; then
      echo "MRA_NOLINT references unknown lint rule: $rule" \
           "(not in scripts/mra_lint.py --list-rules)"
      fail=1
    fi
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "doc reference check FAILED"
  exit 1
fi
echo "doc reference check OK"
