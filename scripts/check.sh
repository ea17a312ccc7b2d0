#!/usr/bin/env bash
# Repo verification: the tier-1 build+test pass, the bench smoke and
# baseline gates, then the ASan+UBSan and TSan legs. The sanitizer
# suite lists live in scripts/sanitize.sh, shared with CI.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "== tier-1: configure, build, ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "${JOBS}"
ctest --test-dir build --output-on-failure -j "${JOBS}"

echo "== bench smoke =="
# Tiny-workload pass over all suites: exercises every figure/claim
# path and the suites' built-in contracts, and writes the artifact the
# regression gate consumes. The committed baseline is the median of 7
# warm reps, so the gated run takes the same shape (one cold rep read
# some suites at 2-7x their warm medians).
./build/bench/bevr_bench --smoke --warmup 1 --reps 7 --json-out BENCH_smoke.json
# The gate must agree an artifact does not regress against itself.
./build/bench/bevr_bench --compare BENCH_smoke.json --baseline BENCH_smoke.json
if [ -f bench/baselines/BENCH_smoke.json ]; then
  ./build/bench/bevr_bench --compare BENCH_smoke.json \
    --baseline bench/baselines/BENCH_smoke.json --threshold 1.0
else
  echo "(no bench/baselines/BENCH_smoke.json — skipping baseline compare)"
fi

echo "== bench smoke: service suites vs committed baseline =="
# The service suites carry their own contracts (lossless accounting,
# bit-equality of served values, clean shedding under overload); gate
# their smoke timings against the committed baseline too, in the shape
# it was recorded in (1 warm-up, 7 reps).
./build/bench/bevr_bench service --smoke --warmup 1 --reps 7 --json-out BENCH_service.json
if [ -f bench/baselines/BENCH_service.json ]; then
  ./build/bench/bevr_bench --compare BENCH_service.json \
    --baseline bench/baselines/BENCH_service.json --threshold 1.0
else
  echo "(no bench/baselines/BENCH_service.json — skipping baseline compare)"
fi

echo "== bench smoke: admission suites vs committed baseline =="
# The admission suites assert the calendar's conservation laws and the
# policy comparison's determinism; gate their smoke timings too. The
# admission and net2 baselines are medians of 7 warm reps, so the runs
# gated against them take the same shape (a cold single rep of the
# calendar suite reads ~4x its warm median).
./build/bench/bevr_bench admission --smoke --warmup 1 --reps 7 --json-out BENCH_admission.json
if [ -f bench/baselines/BENCH_admission.json ]; then
  ./build/bench/bevr_bench --compare BENCH_admission.json \
    --baseline bench/baselines/BENCH_admission.json --threshold 1.0
else
  echo "(no bench/baselines/BENCH_admission.json — skipping baseline compare)"
fi

echo "== bench smoke: net2 suites vs committed baseline =="
# The net2 suites assert the path-admission conservation laws, the
# network policy comparison's contracts, and mean-field convergence;
# gate their smoke timings too.
./build/bench/bevr_bench net2 --smoke --warmup 1 --reps 7 --json-out BENCH_net2.json
if [ -f bench/baselines/BENCH_net2.json ]; then
  ./build/bench/bevr_bench --compare BENCH_net2.json \
    --baseline bench/baselines/BENCH_net2.json --threshold 1.0
else
  echo "(no bench/baselines/BENCH_net2.json — skipping baseline compare)"
fi

echo "== bench full: obs overhead gate vs committed baseline =="
# Full mode on purpose: only full mode gates the obs suite's <= 5%
# fully-instrumented sweep overhead, as the median ratio of 101
# interleaved off/on sweep pairs (--smoke takes 15 and loosens it to
# 25%). 1 warm-up and 7 reps, the shape of the committed baseline.
./build/bench/bevr_bench obs --warmup 1 --reps 7 --json-out BENCH_obs.json
if [ -f bench/baselines/BENCH_obs.json ]; then
  ./build/bench/bevr_bench --compare BENCH_obs.json \
    --baseline bench/baselines/BENCH_obs.json --threshold 1.0
else
  echo "(no bench/baselines/BENCH_obs.json — skipping baseline compare)"
fi

echo "== sanitized: ASan+UBSan =="
scripts/sanitize.sh address "${JOBS}"

echo "== sanitized: TSan =="
scripts/sanitize.sh thread "${JOBS}"

echo "== all checks passed =="
