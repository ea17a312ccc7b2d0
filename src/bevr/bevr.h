// Umbrella header: the full public API of the bevr library.
//
// bevr reproduces Breslau & Shenker, "Best-Effort versus Reservations:
// A Simple Comparative Analysis" (SIGCOMM 1998). Include this for
// everything, or the individual module headers for finer control:
//
//   bevr::utility  — application utility functions π(b)        (§2)
//   bevr::dist     — load distributions P(k), flow perspectives (§3.1)
//   bevr::core     — the models: fixed/variable load, continuum,
//                    welfare, sampling, retry, risk aversion,
//                    asymptotic bounds                         (§2–§6)
//   bevr::sim      — flow-level discrete-event simulator
//   bevr::net      — reservation-capable network substrate
//                    (TSpec/RSpec, RSVP-style soft state,
//                    admission control, GPS scheduling), with
//                    RSVP signalling replayed as a flow policy
//   bevr::kernels  — batched sweep-evaluation kernels: flat load
//                    tables, utility value_batch plumbing and
//                    warm-started k_max, bit-identical to the scalar
//                    model but built for dense sorted grids
//   bevr::runner   — parallel experiment engine: declarative
//                    ScenarioSpecs + paper-figure registry, a
//                    deterministic thread-pool executor with per-task
//                    RNG sub-seeding, memoized model evaluation, and
//                    structured CSV/JSONL result emission
//   bevr::obs      — observability: sharded metrics registry,
//                    scoped trace spans (Chrome/Perfetto export),
//                    end-of-run reports (text/JSON/Prometheus)
#pragma once

#include "bevr/core/asymptotics.h"
#include "bevr/core/continuum.h"
#include "bevr/core/fixed_load.h"
#include "bevr/core/retry.h"
#include "bevr/core/risk_averse.h"
#include "bevr/core/sampling.h"
#include "bevr/core/variable_load.h"
#include "bevr/core/welfare.h"
#include "bevr/dist/algebraic.h"
#include "bevr/dist/continuum.h"
#include "bevr/dist/discrete.h"
#include "bevr/dist/exponential.h"
#include "bevr/dist/exponential_density.h"
#include "bevr/dist/mixture_load.h"
#include "bevr/dist/pareto_density.h"
#include "bevr/dist/poisson.h"
#include "bevr/dist/sampler.h"
#include "bevr/dist/size_biased.h"
#include "bevr/kernels/load_table.h"
#include "bevr/kernels/sweep_evaluator.h"
#include "bevr/kernels/warm_kmax.h"
#include "bevr/net/admission.h"
#include "bevr/net/flowspec.h"
#include "bevr/net/packet_link.h"
#include "bevr/net/packet_sched.h"
#include "bevr/net/rsvp.h"
#include "bevr/net/rsvp_policy.h"
#include "bevr/net/scheduler.h"
#include "bevr/net/token_bucket.h"
#include "bevr/numerics/erlang.h"
#include "bevr/obs/metrics.h"
#include "bevr/obs/report.h"
#include "bevr/obs/trace.h"
#include "bevr/numerics/kahan.h"
#include "bevr/numerics/lambert_w.h"
#include "bevr/numerics/optimize.h"
#include "bevr/numerics/quadrature.h"
#include "bevr/numerics/roots.h"
#include "bevr/numerics/series.h"
#include "bevr/numerics/special.h"
#include "bevr/runner/memo_cache.h"
#include "bevr/runner/memoized_model.h"
#include "bevr/runner/result_sink.h"
#include "bevr/runner/runner.h"
#include "bevr/runner/scenario.h"
#include "bevr/runner/thread_pool.h"
#include "bevr/sim/arrival.h"
#include "bevr/sim/event_queue.h"
#include "bevr/sim/link.h"
#include "bevr/sim/metrics.h"
#include "bevr/sim/rng.h"
#include "bevr/sim/simulator.h"
#include "bevr/utility/mixture.h"
#include "bevr/utility/utility.h"
