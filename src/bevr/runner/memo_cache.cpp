#include "bevr/runner/memo_cache.h"

#include <bit>
#include <utility>

namespace bevr::runner {

namespace {

// 64-bit mix (SplitMix64 finaliser) for combining hash words.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t MemoCache::KeyHash::operator()(const Key& key) const {
  std::uint64_t h = std::hash<std::string>{}(key.op);
  h = mix64(h ^ std::bit_cast<std::uint64_t>(key.a));
  h = mix64(h ^ std::bit_cast<std::uint64_t>(key.b));
  return static_cast<std::size_t>(h);
}

double MemoCache::get_or_compute(const std::string& op, double arg,
                                 const std::function<double()>& compute) {
  return lookup(Key{op, arg, 0.0}, compute);
}

double MemoCache::get_or_compute2(const std::string& op, double arg_a,
                                  double arg_b,
                                  const std::function<double()>& compute) {
  return lookup(Key{op, arg_a, arg_b}, compute);
}

double MemoCache::lookup(Key key, const std::function<double()>& compute) {
  Shard& shard = shards_[KeyHash{}(key) % kShards];
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    const auto found = shard.map.find(key);
    if (found != shard.map.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return found->second;
    }
  }
  // Compute outside the lock: a long argmax search must not block the
  // shard. A racing task may duplicate the work; both produce the same
  // pure value, so insertion order is immaterial.
  misses_.fetch_add(1, std::memory_order_relaxed);
  const double value = compute();
  {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.emplace(std::move(key), value);
  }
  return value;
}

CacheStats MemoCache::stats() const {
  return CacheStats{hits_.load(std::memory_order_relaxed),
                    misses_.load(std::memory_order_relaxed)};
}

void MemoCache::clear() {
  for (auto& shard : shards_) {
    const std::lock_guard<std::mutex> lock(shard.mutex);
    shard.map.clear();
  }
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
}

}  // namespace bevr::runner
