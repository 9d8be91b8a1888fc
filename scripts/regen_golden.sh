#!/usr/bin/env sh
# Regenerate tests/golden/sha256sums.txt from the current build.
#
# Run this ONLY when a change is *supposed* to shift simulation results
# (new physics, calibration change, output-format change) — and say so in
# the PR. A pure refactor must keep the existing manifest green in
# scripts/check.sh without regeneration.
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

. scripts/golden_runs.sh
golden_runs "$tmp"

mkdir -p tests/golden
# shellcheck disable=SC2086  # $golden_files is a word list
(cd "$tmp" && sha256sum $golden_files) > tests/golden/sha256sums.txt
echo "wrote tests/golden/sha256sums.txt:"
cat tests/golden/sha256sums.txt
