// bevr::service::Server contract tests: admission, deadlines,
// coalescing, batching, draining shutdown — and above all the value
// contract: responses bit-identical to direct evaluation through the
// runner's memoized model.
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "bevr/obs/metrics.h"
#include "bevr/runner/memoized_model.h"
#include "bevr/runner/runner.h"
#include "bevr/service/client.h"
#include "bevr/service/server.h"

namespace bevr::service {
namespace {

using runner::ScenarioRegistry;

std::uint64_t counter_now(const std::string& name) {
  return obs::MetricsRegistry::global().snapshot().counter(name);
}

TEST(ServiceOptions, RejectsDegenerateLimits) {
  Server::Options zero_queue;
  zero_queue.queue_capacity = 0;
  EXPECT_THROW(Server{zero_queue}, std::invalid_argument);
  Server::Options zero_batch;
  zero_batch.max_batch = 0;
  EXPECT_THROW(Server{zero_batch}, std::invalid_argument);
}

TEST(ServiceSubmit, UnknownScenarioThrows) {
  Server server{Server::Options{}};
  EXPECT_THROW(
      { auto f = server.submit({.scenario = "no_such_scenario"}); },
      std::invalid_argument);
}

// A hostile capacity is refused in the caller's thread, like an
// unknown scenario: it never reaches a worker (where it would throw
// outside any caller) nor a batch sort (where NaN breaks the order),
// and the server keeps serving everyone else.
TEST(ServiceSubmit, NonFiniteOrNonPositiveCapacityThrows) {
  Server server{Server::Options{}};
  for (const double c : {0.0, -1.0, std::nan(""),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(c);
    EXPECT_THROW(
        { auto f = server.submit({.scenario = "fig2_rigid", .capacity = c}); },
        std::invalid_argument);
  }
  EXPECT_EQ(server.queue_depth(), 0u);
  const Response ok =
      server.submit({.scenario = "fig2_rigid", .capacity = 100.0}).get();
  EXPECT_EQ(ok.status, StatusCode::kOk);
}

TEST(ServiceSubmit, StatusStringsAreStable) {
  EXPECT_EQ(to_string(StatusCode::kOk), "OK");
  EXPECT_EQ(to_string(StatusCode::kOverloaded), "OVERLOADED");
  EXPECT_EQ(to_string(StatusCode::kDeadlineExceeded), "DEADLINE_EXCEEDED");
}

// The acceptance criterion: service responses bit-identical to direct
// runner evaluation — every column.
TEST(ServiceValues, BitIdenticalToDirectEvaluation) {
  auto cache = std::make_shared<runner::MemoCache>();
  Server::Options options;
  options.cache = cache;
  Server server(options);
  Client client(server);
  for (const char* scenario : {"fig2_rigid", "fig3_adaptive"}) {
    const auto direct = runner::make_memoized_model(
        *ScenarioRegistry::builtin().find(scenario), cache);
    for (const double c : {25.0, 100.0, 137.5, 400.0}) {
      const Response r = client.evaluate(
          {.scenario = scenario, .capacity = c, .with_bandwidth_gap = true});
      ASSERT_EQ(r.status, StatusCode::kOk);
      EXPECT_EQ(r.best_effort, direct->best_effort(c));
      EXPECT_EQ(r.reservation, direct->reservation(c));
      EXPECT_EQ(r.performance_gap, direct->performance_gap(c));
      EXPECT_EQ(r.bandwidth_gap, direct->bandwidth_gap(c));
      EXPECT_EQ(r.blocking, direct->blocking_fraction(c));
      EXPECT_EQ(r.total_best_effort, direct->total_best_effort(c));
      EXPECT_EQ(r.total_reservation, direct->total_reservation(c));
      const auto kmax = direct->k_max(c);
      EXPECT_EQ(r.k_max, kmax ? static_cast<double>(*kmax) : -1.0);
    }
  }
}

TEST(ServiceDeadlines, ExpiredAtSubmitResolvesWithoutEvaluation) {
  Server server{Server::Options{}};
  const std::uint64_t evals_before = counter_now("service/evaluations");
  auto future = server.submit({.scenario = "fig2_rigid", .capacity = 100.0},
                              Clock::now() - std::chrono::milliseconds(1));
  const Response r = future.get();
  EXPECT_EQ(r.status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(counter_now("service/evaluations"), evals_before);
}

TEST(ServiceDeadlines, ExpiredInQueueResolvesWithoutEvaluation) {
  Server::Options options;
  options.paused = true;  // requests queue; workers gated
  options.workers = 1;
  Server server(options);
  auto expiring =
      server.submit({.scenario = "fig2_rigid", .capacity = 60.0},
                    Clock::now() + std::chrono::milliseconds(5));
  auto patient = server.submit({.scenario = "fig2_rigid", .capacity = 70.0});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const std::uint64_t expired_before = counter_now("service/deadline_in_queue");
  server.resume();
  EXPECT_EQ(expiring.get().status, StatusCode::kDeadlineExceeded);
  EXPECT_EQ(patient.get().status, StatusCode::kOk);
  EXPECT_EQ(counter_now("service/deadline_in_queue"), expired_before + 1);
}

TEST(ServiceBackpressure, QueueFullRejectsOverloaded) {
  Server::Options options;
  options.paused = true;
  options.queue_capacity = 2;
  Server server(options);
  std::vector<std::future<Response>> admitted;
  admitted.push_back(server.submit({.scenario = "fig2_rigid", .capacity = 10.0}));
  admitted.push_back(server.submit({.scenario = "fig2_rigid", .capacity = 20.0}));
  EXPECT_EQ(server.queue_depth(), 2u);
  // Distinct query, full queue: shed at admission.
  auto rejected = server.submit({.scenario = "fig2_rigid", .capacity = 30.0});
  EXPECT_EQ(rejected.get().status, StatusCode::kOverloaded);
  // Identical query: coalesces onto a queued ticket — rides free, by
  // design, even with the queue full.
  auto coalesced = server.submit({.scenario = "fig2_rigid", .capacity = 10.0});
  EXPECT_EQ(server.queue_depth(), 2u);
  server.resume();
  for (auto& f : admitted) EXPECT_EQ(f.get().status, StatusCode::kOk);
  const Response shared = coalesced.get();
  EXPECT_EQ(shared.status, StatusCode::kOk);
  EXPECT_TRUE(shared.coalesced);
}

TEST(ServiceCoalescing, IdenticalQueriesShareOneEvaluation) {
  Server::Options options;
  options.paused = true;
  options.workers = 1;
  Server server(options);
  const Query query{.scenario = "fig3_rigid", .capacity = 123.0};
  const std::uint64_t evals_before = counter_now("service/evaluations");
  const std::uint64_t coalesced_before = counter_now("service/coalesced");
  std::vector<std::future<Response>> futures;
  for (int i = 0; i < 5; ++i) futures.push_back(server.submit(query));
  EXPECT_EQ(server.queue_depth(), 1u);  // one ticket, five waiters
  server.resume();
  std::vector<Response> responses;
  for (auto& f : futures) responses.push_back(f.get());
  for (const Response& r : responses) {
    EXPECT_EQ(r.status, StatusCode::kOk);
    EXPECT_TRUE(r.coalesced);
    EXPECT_EQ(r.best_effort, responses.front().best_effort);
    EXPECT_EQ(r.reservation, responses.front().reservation);
  }
  EXPECT_EQ(counter_now("service/evaluations"), evals_before + 1);
  EXPECT_EQ(counter_now("service/coalesced"), coalesced_before + 4);
}

TEST(ServiceBatching, QueuedCompatibleQueriesShareOneKernelCall) {
  Server::Options options;
  options.paused = true;
  options.workers = 1;
  Server server(options);
  const std::uint64_t evals_before = counter_now("service/evaluations");
  std::vector<std::future<Response>> futures;
  // Submitted out of capacity order on purpose: the batch sorts.
  for (const double c : {90.0, 30.0, 150.0, 60.0, 120.0}) {
    futures.push_back(server.submit({.scenario = "fig2_adaptive", .capacity = c}));
  }
  server.resume();
  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_EQ(r.status, StatusCode::kOk);
    EXPECT_EQ(r.batch_rows, 5u);
  }
  EXPECT_EQ(counter_now("service/evaluations"), evals_before + 1);
}

TEST(ServiceBatching, MaxBatchBoundsTheSharedCall) {
  Server::Options options;
  options.paused = true;
  options.workers = 1;
  options.max_batch = 2;
  Server server(options);
  std::vector<std::future<Response>> futures;
  for (const double c : {10.0, 20.0, 30.0}) {
    futures.push_back(server.submit({.scenario = "fig2_rigid", .capacity = c}));
  }
  server.resume();
  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_EQ(r.status, StatusCode::kOk);
    EXPECT_LE(r.batch_rows, 2u);
  }
}

// Two registry names describing the same model (figure panel and its
// welfare panel) resolve to one evaluation context, so their queries
// coalesce across scenario names. fig4's welfare panel uses different
// accuracy options, so it must NOT share.
TEST(ServiceCoalescing, CrossScenarioKeySharing) {
  Server server{Server::Options{}};
  EXPECT_EQ(server.scenario_key("fig2_rigid"),
            server.scenario_key("fig2_welfare_rigid"));
  EXPECT_EQ(server.scenario_key("fig3_adaptive"),
            server.scenario_key("fig3_welfare_adaptive"));
  EXPECT_NE(server.scenario_key("fig4_adaptive"),
            server.scenario_key("fig4_welfare_adaptive"));
  EXPECT_NE(server.scenario_key("fig2_rigid"),
            server.scenario_key("fig2_adaptive"));
}

TEST(ServiceShutdown, DrainsAdmittedWorkThenRejects) {
  auto server = std::make_unique<Server>([] {
    Server::Options options;
    options.paused = true;
    options.workers = 2;
    return options;
  }());
  std::vector<std::future<Response>> admitted;
  for (const double c : {40.0, 80.0, 160.0}) {
    admitted.push_back(server->submit({.scenario = "fig3_rigid", .capacity = c}));
  }
  server->shutdown();  // must drain the paused queue, not drop it
  for (auto& f : admitted) EXPECT_EQ(f.get().status, StatusCode::kOk);
  auto late = server->submit({.scenario = "fig3_rigid", .capacity = 100.0});
  EXPECT_EQ(late.get().status, StatusCode::kOverloaded);
  server->shutdown();  // idempotent
}

TEST(ServiceClient, TimeoutBecomesDeadline) {
  Server server{Server::Options{}};
  Client client(server);
  const Response expired =
      client.evaluate({.scenario = "fig2_rigid", .capacity = 100.0},
                      std::chrono::nanoseconds(-1));
  EXPECT_EQ(expired.status, StatusCode::kDeadlineExceeded);
  const Response ok = client.evaluate(
      {.scenario = "fig2_rigid", .capacity = 100.0}, std::chrono::seconds(30));
  EXPECT_EQ(ok.status, StatusCode::kOk);
  EXPECT_GT(ok.total_us, 0.0);
}

TEST(ServiceObs, ProvenanceFieldsAreCoherent) {
  Server server{Server::Options{}};
  Client client(server);
  const Response r =
      client.evaluate({.scenario = "fig2_adaptive", .capacity = 200.0});
  ASSERT_EQ(r.status, StatusCode::kOk);
  EXPECT_EQ(r.capacity, 200.0);
  EXPECT_GE(r.batch_rows, 1u);
  EXPECT_GE(r.total_us, r.queue_us);
  EXPECT_EQ(server.queue_depth(), 0u);
}

}  // namespace
}  // namespace bevr::service
