#include "bevr/admission/trace.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "bevr/sim/rng.h"

namespace bevr::admission {
namespace {

TraceSpec base_spec() {
  TraceSpec spec;
  spec.kind = TraceKind::kPoisson;
  spec.arrival_rate = 20.0;
  spec.mean_duration = 1.0;
  spec.rate = 1.0;
  spec.horizon = 50.0;
  return spec;
}

std::vector<double> starts_of(const ArrivalTrace& trace) {
  std::vector<double> starts;
  starts.reserve(trace.requests.size());
  for (const auto& req : trace.requests) starts.push_back(req.start);
  return starts;
}

TEST(GenerateTrace, DeterministicInSeed) {
  const auto spec = base_spec();
  const auto a = generate_trace(spec, sim::Rng(42));
  const auto b = generate_trace(spec, sim::Rng(42));
  ASSERT_EQ(a.requests.size(), b.requests.size());
  EXPECT_GT(a.requests.size(), 100u);  // λ·T = 1000 expected
  for (std::size_t i = 0; i < a.requests.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.requests[i].submit, b.requests[i].submit);
    EXPECT_DOUBLE_EQ(a.requests[i].start, b.requests[i].start);
    EXPECT_DOUBLE_EQ(a.requests[i].duration, b.requests[i].duration);
    EXPECT_DOUBLE_EQ(a.requests[i].rate, b.requests[i].rate);
    EXPECT_DOUBLE_EQ(a.requests[i].cancel, b.requests[i].cancel);
  }
  const auto c = generate_trace(spec, sim::Rng(43));
  EXPECT_NE(starts_of(a), starts_of(c));
}

TEST(GenerateTrace, SubStreamsIsolateKnobs) {
  // Turning on cancellations or book-ahead must not perturb the
  // arrival process or the durations: each field draws from its own
  // split sub-stream of the root generator. (Traces are sorted by
  // submit time, and book-ahead changes submits — so compare the
  // (start, duration) pairs in start order, which is knob-invariant.)
  const auto service_windows = [](const ArrivalTrace& trace) {
    std::vector<std::pair<double, double>> windows;
    windows.reserve(trace.requests.size());
    for (const auto& req : trace.requests) {
      windows.emplace_back(req.start, req.duration);
    }
    std::sort(windows.begin(), windows.end());
    return windows;
  };

  auto spec = base_spec();
  const auto plain = service_windows(generate_trace(spec, sim::Rng(7)));

  spec.cancel_p = 0.5;
  const auto with_cancels =
      service_windows(generate_trace(spec, sim::Rng(7)));

  spec.cancel_p = 0.0;
  spec.book_ahead = 2.0;
  const auto with_bookahead =
      service_windows(generate_trace(spec, sim::Rng(7)));

  EXPECT_EQ(plain, with_cancels);
  EXPECT_EQ(plain, with_bookahead);
}

TEST(GenerateTrace, InvariantsHold) {
  auto spec = base_spec();
  spec.book_ahead = 1.5;
  spec.cancel_p = 0.3;
  const auto trace = generate_trace(spec, sim::Rng(99));
  ASSERT_FALSE(trace.requests.empty());
  EXPECT_TRUE(std::is_sorted(
      trace.requests.begin(), trace.requests.end(),
      [](const FlowRequest& a, const FlowRequest& b) {
        return a.submit < b.submit;
      }));
  std::size_t cancels = 0;
  for (const auto& req : trace.requests) {
    EXPECT_GE(req.submit, 0.0);
    EXPECT_LE(req.submit, req.start);
    EXPECT_LE(req.start, spec.horizon);
    EXPECT_GT(req.duration, 0.0);
    EXPECT_DOUBLE_EQ(req.rate, spec.rate);
    if (std::isfinite(req.cancel)) {
      ++cancels;
      EXPECT_GE(req.cancel, req.submit);
      EXPECT_LT(req.cancel, req.start);
    }
  }
  // cancel_p = 0.3 over ~1000 requests: plenty of both kinds.
  EXPECT_GT(cancels, trace.requests.size() / 10);
  EXPECT_LT(cancels, trace.requests.size() / 2);
  EXPECT_LE(trace.horizon, spec.horizon);
  // Allocated once, at its exact size.
  EXPECT_EQ(trace.requests.capacity(), trace.requests.size());
}

TEST(GenerateTrace, NoBookAheadMeansImmediateRequests) {
  const auto trace = generate_trace(base_spec(), sim::Rng(3));
  for (const auto& req : trace.requests) {
    EXPECT_DOUBLE_EQ(req.submit, req.start);
    EXPECT_TRUE(std::isinf(req.cancel));
  }
}

TEST(GenerateTrace, BurstyKindModulatesArrivals) {
  auto spec = base_spec();
  spec.kind = TraceKind::kBursty;
  spec.burst_hot_rate = 200.0;
  spec.burst_cold_rate = 5.0;
  spec.burst_hot_p = 0.5;
  const auto bursty = generate_trace(spec, sim::Rng(11));
  ASSERT_GT(bursty.requests.size(), 50u);
  EXPECT_EQ(bursty.requests.capacity(), bursty.requests.size());
  // Deterministic too.
  const auto again = generate_trace(spec, sim::Rng(11));
  EXPECT_EQ(starts_of(bursty), starts_of(again));
  // The mixture rate sits between the two extremes.
  const double mean_rate =
      static_cast<double>(bursty.requests.size()) / spec.horizon;
  EXPECT_GT(mean_rate, spec.burst_cold_rate);
  EXPECT_LT(mean_rate, spec.burst_hot_rate);
}

TEST(TraceSpec, ValidateRejectsBadFields) {
  auto spec = base_spec();
  EXPECT_NO_THROW(spec.validate());

  spec.arrival_rate = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = base_spec();
  spec.mean_duration = -1.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = base_spec();
  spec.rate = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = base_spec();
  spec.horizon = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = base_spec();
  spec.cancel_p = 1.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = base_spec();
  spec.book_ahead = -0.5;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = base_spec();
  spec.kind = TraceKind::kBursty;
  spec.burst_hot_p = -0.1;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = base_spec();
  spec.kind = TraceKind::kFile;
  EXPECT_THROW(spec.validate(), std::invalid_argument);  // empty path
  spec.path = "somewhere.trace";
  EXPECT_NO_THROW(spec.validate());
}

TEST(GenerateTrace, RejectsFileKind) {
  auto spec = base_spec();
  spec.kind = TraceKind::kFile;
  spec.path = "somewhere.trace";
  EXPECT_THROW((void)generate_trace(spec, sim::Rng(1)),
               std::invalid_argument);
}

TEST(TraceKindNames, RoundTrip) {
  EXPECT_EQ(to_string(TraceKind::kPoisson), "poisson");
  EXPECT_EQ(to_string(TraceKind::kBursty), "bursty");
  EXPECT_EQ(to_string(TraceKind::kFile), "file");
}

}  // namespace
}  // namespace bevr::admission
