#!/usr/bin/env bash
# The A/A test: run the full untraced benchmark twice on the same tree and
# seed, then compare every end-to-end metric of every workload against the
# benchmark's own bounds (simulated-clock metrics and the sim digest must
# be identical). Prints one pass/FAIL row per pair; exits non-zero if any
# pair disagrees or any correctness gate fails.
#
#   benchmark/check_repeat.sh [SEED]
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
run=(cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --)
mkdir -p benchmark/out
"${run[@]}" --seed "$seed" > benchmark/out/repeat_a.txt
"${run[@]}" --seed "$seed" > benchmark/out/repeat_b.txt
"${run[@]}" --compare benchmark/out/repeat_a.txt benchmark/out/repeat_b.txt
