// Thread-safe memoization for the runner's hot repeated computations.
//
// Sweeps hammer the same evaluations from many tasks: k_max(C) argmax
// searches (shared by B, R, δ and Δ at one capacity), the Hurwitz-zeta
// λ-calibration of algebraic loads (a root solve per construction),
// and the welfare maximisations' dense V(C) probing (overlapping C
// grids across prices). MemoCache is a sharded hash map keyed by
// (operation tag, double argument) with hit/miss counters; values are
// whatever the uncached computation returned, so cached and uncached
// paths are bitwise identical. Concurrent misses on the same key may
// compute twice — the computations are pure, so last-write-wins is
// harmless and nothing serialises on the compute.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_map>

namespace bevr::runner {

/// Cumulative cache effectiveness counters.
struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(total);
  }
};

class MemoCache {
 public:
  /// Return the memoized value for (op, arg), computing and storing it
  /// on first sight. `op` identifies the computation (e.g. "B", "kmax");
  /// two ops never collide even at equal args.
  double get_or_compute(const std::string& op, double arg,
                        const std::function<double()>& compute);

  /// Two-argument key convenience (e.g. (z, mean) calibrations).
  double get_or_compute2(const std::string& op, double arg_a, double arg_b,
                         const std::function<double()>& compute);

  /// Every lookup since construction or clear() counts once, as a hit
  /// or a miss. The obs registry's runner/cache/{hits,misses} are fed
  /// from differences of this view, once per run_scenario call.
  [[nodiscard]] CacheStats stats() const;
  void clear();

 private:
  struct Key {
    std::string op;
    double a = 0.0;
    double b = 0.0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& key) const;
  };
  struct Shard {
    std::mutex mutex;
    std::unordered_map<Key, double, KeyHash> map;
  };

  double lookup(Key key, const std::function<double()>& compute);

  static constexpr std::size_t kShards = 16;
  std::array<Shard, kShards> shards_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace bevr::runner
