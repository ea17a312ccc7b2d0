// The benchmark's own arithmetic: percentiles with a sample-count
// guard, the max_rps ladder and its search, metric-name validation, the
// golden-CSV comparator and the response digest. Pure functions,
// unit-tested in perfbench/tests/test_stats.cpp.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

/// Median (mean of the middle pair for even sizes). Throws on empty input.
inline double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// First quartile, interpolated between order statistics. Used to
/// summarise serve's per-window latency percentiles within a run: slow
/// spells of the host that cover up to three quarters of a run do not
/// move it. Throws on empty input.
inline double lower_quartile(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("quartile of no samples");
  std::sort(values.begin(), values.end());
  const double at = 0.25 * static_cast<double>(values.size() - 1);
  const auto i = static_cast<std::size_t>(at);
  const double frac = at - static_cast<double>(i);
  return i + 1 < values.size() ? values[i] + frac * (values[i + 1] - values[i]) : values[i];
}

/// Samples that lie strictly beyond the nearest-rank q-quantile of n
/// samples: n - ceil(q * n).
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

/// Nearest-rank tail quantile (q in [0.5, 1)). A tail estimate resting
/// on fewer than ten samples beyond it is not a measurement, so this
/// refuses (throws std::domain_error) instead of returning one.
inline double tail_quantile(std::vector<double> values, double q) {
  if (!(q >= 0.5 && q < 1.0)) throw std::invalid_argument("quantile out of range");
  if (samples_beyond(values.size(), q) < 10) {
    throw std::domain_error("percentile " + std::to_string(q) + " of " +
                            std::to_string(values.size()) +
                            " samples has fewer than ten samples beyond it");
  }
  std::sort(values.begin(), values.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
  return values[rank - 1];
}

/// Geometric rate ladder lo, lo(1+step), ... up to and including the
/// first rung at or above hi.
inline std::vector<double> rate_ladder(double lo, double hi, double step) {
  if (!(lo > 0.0 && hi >= lo && step > 0.0)) {
    throw std::invalid_argument("rate_ladder: need 0 < lo <= hi, step > 0");
  }
  std::vector<double> rungs{lo};
  while (rungs.back() < hi) rungs.push_back(rungs.back() * (1.0 + step));
  return rungs;
}

/// Binary search for the highest rung that passes, assuming a rung
/// passes only if every lower rung does (latency rises with rate).
/// `known_pass` is a rung already shown to pass (-1 for none). Returns
/// the index of the highest passing rung, or -1 when none passes.
template <class Probe>
int highest_passing_rung(int rungs, int known_pass, Probe&& passes) {
  int lo = known_pass;  // highest rung known to pass
  int hi = rungs;       // lowest rung known to fail (rungs = none yet)
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    if (passes(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

/// True when the first and last thirds of a step's series (in arrival
/// order) show it growing: the last third's median exceeds the first's
/// by more than `slack`. A queue that keeps up oscillates; one that
/// falls behind climbs across the step. Medians keep one short stall
/// from reading as growth.
inline bool growing(const std::vector<double>& series, double slack) {
  const auto third = static_cast<std::ptrdiff_t>(series.size() / 3);
  if (third == 0) return false;
  const double first = median({series.begin(), series.begin() + third});
  const double last = median({series.end() - third, series.end()});
  return last - first > slack;
}

/// Metric names as the benchmark contract allows them: 1-64 of
/// [A-Za-z0-9_.-], starting with a letter or digit.
inline bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

/// CsvSink output minus its '#' provenance lines — the normalisation
/// tests/golden/test_golden.cpp applies before comparing.
inline std::string strip_comments(const std::string& csv) {
  std::istringstream in(csv);
  std::string out;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty() && line.front() == '#') continue;
    out += line;
    out += '\n';
  }
  return out;
}

/// Byte comparison of a run's CSV (comments stripped) against a golden.
/// Values are printed round-trip exact, so one ulp changes the text.
/// Returns nullopt on a match, else the first differing line.
inline std::optional<std::string> golden_mismatch(const std::string& csv,
                                                  const std::string& golden) {
  const std::string got = strip_comments(csv);
  if (got == golden) return std::nullopt;
  std::istringstream a(got);
  std::istringstream b(golden);
  std::string la;
  std::string lb;
  for (int line = 1;; ++line) {
    const bool more_a = static_cast<bool>(std::getline(a, la));
    const bool more_b = static_cast<bool>(std::getline(b, lb));
    if (!more_a && !more_b) return "line endings differ";
    if (la != lb || more_a != more_b) {
      return "line " + std::to_string(line) + ": got '" + (more_a ? la : "<eof>") +
             "', golden '" + (more_b ? lb : "<eof>") + "'";
    }
  }
}

/// FNV-1a over the bit patterns of `values`, in order. Each step
/// (h ^ bits) * odd prime is a bijection of h, so changing any single
/// value, by one ulp or in sign, always changes the digest.
inline std::uint64_t bits_digest(std::initializer_list<double> values) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const double v : values) h = (h ^ std::bit_cast<std::uint64_t>(v)) * 1099511628211ULL;
  return h;
}

}  // namespace perfbench
