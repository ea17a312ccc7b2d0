// Service stress: many client threads, mixed deadlines, a queue far
// smaller than the offered load. The invariants under fire:
//  * every submitted request resolves with exactly one terminal status
//    (nothing lost, nothing resolved twice — set_value would throw);
//  * kOk responses are bit-identical to direct evaluation;
//  * coalescing actually happens, observed via obs counter deltas;
//  * shutdown mid-storm still drains every admitted request.
// This file is the TSan target for the service (see ci.yml): the
// assertions matter, but so does simply executing the submit/claim/
// drain dance under the race detector.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bevr/obs/metrics.h"
#include "bevr/runner/memoized_model.h"
#include "bevr/runner/runner.h"
#include "bevr/service/loadgen.h"
#include "bevr/service/server.h"

namespace bevr::service {
namespace {

std::uint64_t counter_now(const std::string& name) {
  return obs::MetricsRegistry::global().snapshot().counter(name);
}

TEST(ServiceStress, StormResolvesEveryRequest) {
  Server::Options options;
  options.workers = 2;
  options.queue_capacity = 16;  // far below the offered load
  auto cache = std::make_shared<runner::MemoCache>();
  options.cache = cache;
  Server server(options);

  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 200;
  const std::uint64_t coalesced_before = counter_now("service/coalesced");

  std::atomic<std::uint64_t> ok{0}, overloaded{0}, expired{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (unsigned t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        // A small capacity set shared across threads so identical
        // queries collide in the queue; a deterministic mix of no
        // deadline / generous / already-hopeless budgets.
        const double capacity = 50.0 + 25.0 * static_cast<double>(i % 8);
        const char* scenario = (t % 2 == 0) ? "fig2_rigid" : "fig3_adaptive";
        Deadline deadline = kNoDeadline;
        switch ((t + i) % 3) {
          case 0: break;
          case 1: deadline = Clock::now() + std::chrono::milliseconds(50); break;
          case 2: deadline = Clock::now() + std::chrono::microseconds(20); break;
        }
        const Response r =
            server.submit({.scenario = scenario, .capacity = capacity},
                          deadline)
                .get();
        switch (r.status) {
          case StatusCode::kOk: ok.fetch_add(1); break;
          case StatusCode::kOverloaded: overloaded.fetch_add(1); break;
          case StatusCode::kDeadlineExceeded: expired.fetch_add(1); break;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();

  EXPECT_EQ(ok + overloaded + expired, kThreads * kPerThread);
  EXPECT_GT(ok.load(), 0u);
  // 8 threads cycling 8 capacities of 2 scenarios through a 16-deep
  // queue: identical in-flight queries are guaranteed collisions.
  EXPECT_GT(counter_now("service/coalesced"), coalesced_before);

  // Spot-check values after the storm against direct evaluation.
  const auto& registry = runner::ScenarioRegistry::builtin();
  const auto direct = runner::make_memoized_model(
      *registry.find("fig2_rigid"), cache);
  const Response check =
      server.submit({.scenario = "fig2_rigid", .capacity = 125.0}).get();
  ASSERT_EQ(check.status, StatusCode::kOk);
  EXPECT_EQ(check.best_effort, direct->best_effort(125.0));
  EXPECT_EQ(check.reservation, direct->reservation(125.0));
  EXPECT_EQ(check.total_reservation, direct->total_reservation(125.0));
}

TEST(ServiceStress, OpenLoopOverloadShedsCleanly) {
  Server::Options tiny;
  tiny.workers = 1;
  tiny.queue_capacity = 4;
  Server server(tiny);

  LoadGenOptions load;
  for (int i = 0; i < 32; ++i) {
    load.queries.push_back(
        {.scenario = "fig3_rigid", .capacity = 30.0 + 10.0 * i});
  }
  load.threads = 8;
  load.total_requests = 1024;
  load.rate_per_sec = 50000.0;  // hopeless for one worker: must shed
  load.deadline = std::chrono::milliseconds(2);
  const LoadGenReport report = run_open_loop(server, load);

  EXPECT_EQ(report.total(), load.total_requests);
  EXPECT_GT(report.ok, 0u);
  EXPECT_GT(report.overloaded + report.deadline_exceeded, 0u);
}

TEST(ServiceStress, ShutdownMidStormDrainsAdmitted) {
  auto server = std::make_unique<Server>([] {
    Server::Options options;
    options.workers = 2;
    options.queue_capacity = 32;
    return options;
  }());

  std::vector<std::future<Response>> futures;
  std::mutex futures_mutex;
  std::atomic<bool> stop{false};
  std::vector<std::thread> submitters;
  for (unsigned t = 0; t < 4; ++t) {
    submitters.emplace_back([&, t] {
      for (std::uint64_t i = 0; !stop.load(); ++i) {
        auto future = server->submit(
            {.scenario = "fig2_adaptive",
             .capacity = 20.0 + static_cast<double>((t * 7 + i) % 64)});
        std::lock_guard<std::mutex> lock(futures_mutex);
        futures.push_back(std::move(future));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  server->shutdown();  // races deliberately with active submitters
  stop.store(true);
  for (std::thread& submitter : submitters) submitter.join();

  // Every future — admitted before shutdown or rejected after — must
  // resolve; none may hang or be abandoned.
  std::uint64_t ok = 0, rejected = 0;
  for (auto& future : futures) {
    const Response r = future.get();
    if (r.status == StatusCode::kOk) {
      ++ok;
    } else {
      ASSERT_EQ(r.status, StatusCode::kOverloaded);
      ++rejected;
    }
  }
  EXPECT_GT(ok, 0u);
  EXPECT_GT(ok + rejected, 0u);
}

TEST(ServiceStress, ClosedLoopPopulationIsLossless) {
  Server::Options options;
  options.workers = 4;
  Server server(options);
  LoadGenOptions load;
  for (int i = 0; i < 16; ++i) {
    load.queries.push_back(
        {.scenario = "fig2_rigid", .capacity = 40.0 + 20.0 * i});
  }
  load.threads = 8;
  load.requests_per_thread = 100;
  const LoadGenReport report = run_closed_loop(server, load);
  EXPECT_EQ(report.ok, 800u);
  EXPECT_EQ(report.overloaded, 0u);
  EXPECT_EQ(report.deadline_exceeded, 0u);
  EXPECT_GT(report.p50_us, 0.0);
  EXPECT_GE(report.p99_us, report.p50_us);
}

}  // namespace
}  // namespace bevr::service
