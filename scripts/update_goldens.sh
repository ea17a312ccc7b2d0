#!/usr/bin/env bash
# Regenerate tests/golden/*.csv from the current build.
#
# A golden is the bevr_run CSV for one registry scenario (default run
# options: seed 42, bandwidth-gap column where the spec asks for it)
# with the '#' provenance comments stripped — the same normalisation
# tests/golden/test_golden.cpp applies.
#
# Only run this after an INTENTIONAL value change, and review the
# resulting diff like any other code change: a golden refresh that
# touches scenarios you did not mean to change is a regression caught,
# not noise to commit.
#
# Usage: scripts/update_goldens.sh [build-dir]   (default: build)
set -euo pipefail

repo_root=$(cd "$(dirname "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build"}
bevr_run="$build_dir/examples/bevr_run"
golden_dir="$repo_root/tests/golden"

if [[ ! -x "$bevr_run" ]]; then
  echo "error: $bevr_run not built (cmake --build $build_dir --target bevr_run)" >&2
  exit 1
fi

# Scenario names, one per line, from the registry itself.
# Drop the header line and the trailing "N scenario(s)" count.
scenarios=$("$bevr_run" --list | awk 'NR > 1 && NF > 2 {print $1}')

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT
for scenario in $scenarios; do
  "$bevr_run" "$scenario" --threads 4 --output "$tmp" >/dev/null
  grep -v '^#' "$tmp" > "$golden_dir/$scenario.csv"
  echo "wrote tests/golden/$scenario.csv"
done
