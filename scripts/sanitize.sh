#!/usr/bin/env bash
# Sanitizer legs: build the listed test binaries under one sanitizer in
# its own build directory and run them. scripts/check.sh and the CI
# `sanitizers` job both call this script, so the two share one list.
#
#   address  ASan+UBSan (build-asan): runner, sim, admission (the flow
#            engine admission, net2 and net replay through), net2, net
#            (RSVP signalling, admission controllers, schedulers),
#            kernels, core, numerics, dist, utility, bench (the JSON
#            reader, artifact writer and compare gate), service (the
#            ticket claim path and its batched evaluations), obs (the
#            counters, trace buffers and reports), integration (the
#            cross-module checks) and the golden replay at 1 thread.
#            Only the cli suite, which runs the built binaries as
#            subprocesses, stays outside it.
#   thread   TSan (build-tsan): the suites with shared state — runner
#            (pool, memo), obs (sharded registry, trace buffers),
#            service (ticket queue, worker pool), admission (calendar
#            expiry vs cancellation), net2 (ledger rollback), kernels
#            (thread-local warm-k_max resume slots, which every runner
#            and service point now goes through) — plus the golden
#            replay at 4 threads.
#
# Usage: scripts/sanitize.sh address|thread [jobs]
set -euo pipefail
cd "$(dirname "$0")/.."

LEG="${1:-}"
JOBS="${2:-$(nproc)}"

case "${LEG}" in
  address)
    BUILD=build-asan
    FLAG=ON
    SUITES=(bevr_runner_tests bevr_sim_tests bevr_admission_tests
            bevr_net2_tests bevr_net_tests bevr_kernels_tests
            bevr_core_tests bevr_numerics_tests bevr_dist_tests
            bevr_utility_tests bevr_bench_tests bevr_service_tests
            bevr_obs_tests bevr_integration_tests bevr_golden_tests)
    # The golden replay's serial arm; the 4-thread arm is TSan's.
    GOLDEN_FILTER='*/1thread'
    ;;
  thread)
    BUILD=build-tsan
    FLAG=thread
    SUITES=(bevr_runner_tests bevr_obs_tests bevr_service_tests
            bevr_admission_tests bevr_net2_tests bevr_kernels_tests
            bevr_golden_tests)
    # The 4-thread replay is the concurrent one; the 1-thread arm adds
    # nothing a race detector can see.
    GOLDEN_FILTER='*/4thread'
    ;;
  *)
    echo "usage: $0 address|thread [jobs]" >&2
    exit 2
    ;;
esac

cmake -B "${BUILD}" -S . -DBEVR_SANITIZE="${FLAG}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build "${BUILD}" -j "${JOBS}" --target "${SUITES[@]}"
for suite in "${SUITES[@]}"; do
  echo "-- ${LEG}: ${suite}"
  if [ "${suite}" = bevr_golden_tests ]; then
    "./${BUILD}/tests/${suite}" --gtest_filter="${GOLDEN_FILTER}"
  else
    "./${BUILD}/tests/${suite}"
  fi
done
