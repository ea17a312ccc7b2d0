// bench_service: the concurrent evaluation service under load.
//
// Two suites:
//  * service_closed_loop — N closed-loop clients over a mixed-scenario
//    workset; reports throughput and client-observed latency
//    percentiles, and asserts the service contract on the traffic it
//    just served: every request resolved kOk, and every response is
//    bit-identical to direct evaluation through the runner's memoized
//    model (the service changes scheduling, never values).
//  * service_overload — open-loop arrivals against a deliberately tiny
//    server (1 worker, short queue, tight deadlines); asserts the
//    shedding contract: every request resolves with one of the three
//    terminal statuses and admission control actually engages.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "bevr/bench/bench_util.h"
#include "bevr/bench/registry.h"
#include "bevr/runner/memoized_model.h"
#include "bevr/runner/runner.h"
#include "bevr/service/client.h"
#include "bevr/service/loadgen.h"
#include "bevr/service/server.h"

namespace {

using namespace bevr;

std::vector<service::Query> mixed_workset(int per_scenario) {
  std::vector<service::Query> queries;
  for (const char* scenario :
       {"fig2_adaptive", "fig2_rigid", "fig3_adaptive", "fig3_rigid"}) {
    for (int i = 0; i < per_scenario; ++i) {
      queries.push_back(
          {.scenario = scenario, .capacity = 40.0 + 15.0 * i});
    }
  }
  return queries;
}

}  // namespace

BEVR_BENCHMARK(service_closed_loop,
               "closed-loop clients against the evaluation service") {
  service::Server::Options options;
  options.workers = 4;
  auto cache = std::make_shared<runner::MemoCache>();
  options.cache = cache;
  service::Server server(options);

  service::LoadGenOptions load;
  load.queries = mixed_workset(ctx.pick(12, 4));
  load.threads = static_cast<unsigned>(ctx.pick(8, 4));
  load.requests_per_thread =
      static_cast<std::uint64_t>(ctx.pick(400, 40));
  const service::LoadGenReport report = service::run_closed_loop(server, load);

  bench::print_columns({"ok", "coalesced", "rps", "p50_us", "p95_us",
                        "p99_us"});
  bench::print_row({static_cast<double>(report.ok),
                    static_cast<double>(report.coalesced),
                    report.throughput_rps, report.p50_us, report.p95_us,
                    report.p99_us});
  ctx.set_items(report.total());

  if (report.total() !=
      static_cast<std::uint64_t>(load.threads) * load.requests_per_thread) {
    ctx.fail("request accounting lost responses");
  }
  if (report.ok != report.total()) {
    ctx.fail("closed loop with no deadlines must resolve every request kOk");
  }

  // Value contract on the very traffic just served: re-ask the service
  // for each workset query and compare bitwise against the runner's
  // memoized model built from the same shared cache.
  service::Client client(server);
  const auto& registry = runner::ScenarioRegistry::builtin();
  for (const service::Query& query : load.queries) {
    const service::Response response = client.evaluate(query);
    const auto direct = runner::make_memoized_model(
        *registry.find(query.scenario), cache);
    if (response.best_effort != direct->best_effort(query.capacity) ||
        response.reservation != direct->reservation(query.capacity) ||
        response.performance_gap !=
            direct->performance_gap(query.capacity) ||
        response.total_best_effort !=
            direct->total_best_effort(query.capacity) ||
        response.total_reservation !=
            direct->total_reservation(query.capacity)) {
      ctx.fail(query.scenario + ": service response diverges from direct "
                                "evaluation at C=" +
               std::to_string(query.capacity));
      break;
    }
  }
}

BEVR_BENCHMARK(service_overload,
               "open-loop overload: admission control and deadlines shed") {
  // Timed phase: live open-loop arrivals against a deliberately tiny
  // server. The *status split* here is machine-speed dependent (a fast
  // box with a warm memo cache can drain the queue faster than 20k
  // req/s fills it), so the only hard contract on this phase is
  // lossless accounting; the split is printed, not asserted.
  service::Server::Options tiny;
  tiny.workers = 1;
  tiny.queue_capacity = 8;
  service::Server server(tiny);

  service::LoadGenOptions load;
  load.queries = mixed_workset(ctx.pick(16, 8));
  load.threads = 4;
  load.total_requests = static_cast<std::uint64_t>(ctx.pick(4096, 512));
  load.rate_per_sec = ctx.pick(60000.0, 20000.0);
  load.deadline = std::chrono::milliseconds(2);
  const service::LoadGenReport report = service::run_open_loop(server, load);

  bench::print_columns({"ok", "overloaded", "expired", "rps", "p99_us"});
  bench::print_row({static_cast<double>(report.ok),
                    static_cast<double>(report.overloaded),
                    static_cast<double>(report.deadline_exceeded),
                    report.throughput_rps, report.p99_us});
  ctx.set_items(report.total());

  if (report.total() != load.total_requests) {
    ctx.fail("overload run lost responses: every request must resolve");
  }

  // Contract phase, deterministic by construction: submit the same
  // population against a *paused* tiny server so the queue must fill
  // (capacity 8 << population) before any worker can drain it, then
  // resume and drain. No timing involved: queued/coalesced requests
  // resolve kOk, the overflow resolves kOverloaded, and an
  // already-expired deadline resolves kDeadlineExceeded at submit.
  service::Server::Options gated = tiny;
  gated.paused = true;
  service::Server gate(gated);

  auto expired = gate.submit(load.queries.front(),
                             service::Clock::now() - std::chrono::seconds(1));

  std::vector<std::future<service::Response>> futures;
  futures.reserve(load.total_requests);
  for (std::uint64_t i = 0; i < load.total_requests; ++i) {
    futures.push_back(
        gate.submit(load.queries[static_cast<std::size_t>(i) %
                                 load.queries.size()]));
  }
  gate.resume();

  std::uint64_t ok = 0;
  std::uint64_t overloaded = 0;
  for (auto& future : futures) {
    const service::Response response = future.get();
    ok += response.status == service::StatusCode::kOk ? 1u : 0u;
    overloaded += response.status == service::StatusCode::kOverloaded ? 1u : 0u;
  }
  if (expired.get().status != service::StatusCode::kDeadlineExceeded) {
    ctx.fail("expired-at-submit deadline must shed without queueing");
  }
  if (ok + overloaded != load.total_requests) {
    ctx.fail("paused-prefill run lost responses: every request must resolve");
  }
  if (overloaded == 0) {
    ctx.fail("bounded queue admitted an entire population 64x its size");
  }
  if (ok == 0) {
    ctx.fail("overload run served nothing: shedding must not starve");
  }
}
