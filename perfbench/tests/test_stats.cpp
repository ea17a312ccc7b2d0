// Tests for the benchmark's own arithmetic (perfbench/src/stats.h).
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bevr/runner/result_sink.h"
#include "stats.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(TailQuantile, RefusesFewerThanTenSamplesBeyond) {
  EXPECT_THROW((void)tail_quantile(one_to(99), 0.9), std::domain_error);   // 9 beyond
  EXPECT_DOUBLE_EQ(tail_quantile(one_to(100), 0.9), 90.0);                 // 10 beyond
  EXPECT_THROW((void)tail_quantile(one_to(999), 0.99), std::domain_error);
  EXPECT_DOUBLE_EQ(tail_quantile(one_to(1000), 0.99), 990.0);
  EXPECT_THROW((void)tail_quantile(one_to(19), 0.5), std::domain_error);
  EXPECT_DOUBLE_EQ(tail_quantile(one_to(20), 0.5), 10.0);
}

TEST(TailQuantile, IgnoresInputOrder) {
  std::vector<double> v = one_to(200);
  std::reverse(v.begin(), v.end());
  EXPECT_DOUBLE_EQ(tail_quantile(v, 0.9), 180.0);
}

TEST(Median, OddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(LowerQuartile, InterpolatesAndIgnoresASlowQuarter) {
  EXPECT_DOUBLE_EQ(lower_quartile({5}), 5.0);
  EXPECT_DOUBLE_EQ(lower_quartile({4, 3, 2, 1, 5}), 2.0);
  EXPECT_DOUBLE_EQ(lower_quartile({1, 2, 3, 4}), 1.75);
  // Three slow repeats out of eight leave it on the steady ones.
  EXPECT_DOUBLE_EQ(lower_quartile({1, 1, 1, 1, 1, 9, 9, 9}), 1.0);
  EXPECT_THROW((void)lower_quartile({}), std::invalid_argument);
}

TEST(RateLadder, GeometricAndCoversTheTop) {
  const std::vector<double> ladder = rate_ladder(1000, 2000, 0.05);
  ASSERT_GE(ladder.size(), 2u);
  EXPECT_DOUBLE_EQ(ladder.front(), 1000.0);
  EXPECT_GE(ladder.back(), 2000.0);
  EXPECT_LT(ladder[ladder.size() - 2], 2000.0);
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_NEAR(ladder[i] / ladder[i - 1], 1.05, 1e-12);
  }
}

// p90 of an M/M/1-like latency curve: finite below the knee, climbing
// without bound as the rate approaches it.
double synthetic_p90_ms(double rate, double knee) {
  return rate < knee ? 0.2 / (1.0 - rate / knee) : 1e9;
}

TEST(LadderSearch, FindsTheKneeOfASyntheticCurve) {
  const std::vector<double> ladder = rate_ladder(500, 20000, 0.05);
  for (const double knee : {1234.0, 3000.0, 7777.0, 15000.0}) {
    const double limit_ms = 2.0;  // p90 <= 2 ms  <=>  rate <= 0.9 knee
    int expected = -1;
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      if (synthetic_p90_ms(ladder[i], knee) <= limit_ms) expected = static_cast<int>(i);
    }
    int probes = 0;
    const auto passes = [&](int rung) {
      ++probes;
      return synthetic_p90_ms(ladder[static_cast<std::size_t>(rung)], knee) <= limit_ms;
    };
    EXPECT_EQ(highest_passing_rung(static_cast<int>(ladder.size()), -1, passes), expected)
        << "knee " << knee;
    EXPECT_LE(probes, 7);  // log2 of the rung count, not a linear walk
    // A known-passing starting rung gives the same answer.
    probes = 0;
    EXPECT_EQ(highest_passing_rung(static_cast<int>(ladder.size()), 0, passes), expected);
  }
}

TEST(LadderSearch, NothingPasses) {
  EXPECT_EQ(highest_passing_rung(10, -1, [](int) { return false; }), -1);
  EXPECT_EQ(highest_passing_rung(10, -1, [](int) { return true; }), 9);
}

TEST(Growing, FlatNoiseVersusClimb) {
  EXPECT_FALSE(growing({1, 3, 1, 3, 1, 3, 1, 3, 1}, 0.5));
  EXPECT_TRUE(growing({1, 2, 3, 4, 5, 6, 7, 8, 9}, 0.5));
  EXPECT_FALSE(growing({5, 5}, 0.0));  // too short to judge
  // One spike in the last third is a stall, not a climb.
  EXPECT_FALSE(growing({1, 1, 1, 1, 1, 1, 1, 9, 1}, 0.5));
}

TEST(MetricNames, ContractCharacterSet) {
  for (const char* good : {"work_ms", "service.p90_ms_high", "runner.figures.cache_hit_ratio",
                           "kernels.row_us-point", "0x"}) {
    EXPECT_TRUE(valid_metric_name(good)) << good;
  }
  for (const char* bad : {"", "_lead", ".lead", "has space", "slash/name", "ünits", "q\"uote"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(GoldenComparator, StripsCommentsAndMatches) {
  const std::string golden = "capacity,b\n10,0.5\n";
  EXPECT_FALSE(golden_mismatch("# scenario=x git=abc\ncapacity,b\n10,0.5\n# summary\n", golden));
}

TEST(GoldenComparator, CatchesOneUlp) {
  const double value = 0.09471304530701671;
  const double next = std::nextafter(value, 1.0);
  ASSERT_NE(value, next);
  const std::string golden = "capacity,b\n10," + bevr::runner::format_value(value) + "\n";
  const std::string run = "capacity,b\n10," + bevr::runner::format_value(next) + "\n";
  const auto mismatch = golden_mismatch(run, golden);
  ASSERT_TRUE(mismatch.has_value());
  EXPECT_NE(mismatch->find("line 2"), std::string::npos) << *mismatch;
}

TEST(BitsDigest, CatchesOneUlpInAnyPosition) {
  const double a = 0.09471304530701671;
  const double b = 61.5;
  const double c = -1.0;
  const std::uint64_t base = bits_digest({a, b, c});
  EXPECT_EQ(bits_digest({a, b, c}), base);
  EXPECT_NE(bits_digest({std::nextafter(a, 1.0), b, c}), base);
  EXPECT_NE(bits_digest({a, std::nextafter(b, 0.0), c}), base);
  EXPECT_NE(bits_digest({a, b, std::nextafter(c, 0.0)}), base);
  EXPECT_NE(bits_digest({b, a, c}), base);       // order matters
  EXPECT_NE(bits_digest({0.0}), bits_digest({-0.0}));  // bitwise, not ==
}

TEST(GoldenComparator, CatchesMissingAndExtraRows) {
  EXPECT_TRUE(golden_mismatch("a\n1\n", "a\n1\n2\n"));
  EXPECT_TRUE(golden_mismatch("a\n1\n2\n", "a\n1\n"));
}

}  // namespace
}  // namespace perfbench
