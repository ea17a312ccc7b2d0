#include "bevr/net2/policy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bevr/core/fixed_load.h"

namespace bevr::net2 {

std::string to_string(NetPolicyKind kind) {
  switch (kind) {
    case NetPolicyKind::kBestEffort:
      return "net_best_effort";
    case NetPolicyKind::kDirectReservation:
      return "direct_reservation";
    case NetPolicyKind::kDar:
      return "dar";
  }
  throw std::invalid_argument("to_string: unknown NetPolicyKind");
}

void NetPolicyConfig::validate() const {
  if (!(trunk_reserve >= 0.0) || !std::isfinite(trunk_reserve)) {
    throw std::invalid_argument(
        "NetPolicyConfig: trunk_reserve must be finite and >= 0");
  }
}

namespace {

/// Shared routing state: every path a decision can hold, memoised once
/// and named by its index (Decision::held). Min-hop paths are memoised
/// per node pair; they are pure functions of the topology, so caching
/// cannot change any outcome — it only keeps request() off the BFS in
/// steady state.
class RoutedPolicy : public NetPolicy {
 public:
  explicit RoutedPolicy(const Topology& topology)
      : topology_(topology), ledger_(topology) {}

  [[nodiscard]] const LinkLedger& ledger() const override { return ledger_; }

 protected:
  /// Handle of the min-hop path between src and dst.
  std::uint64_t route(NodeId src, NodeId dst) {
    const auto key = std::make_pair(src, dst);
    auto it = routes_.find(key);
    if (it == routes_.end()) {
      auto path = topology_.shortest_path(src, dst);
      if (!path) {
        throw std::invalid_argument("NetPolicy: no route between nodes " +
                                    std::to_string(src) + " and " +
                                    std::to_string(dst));
      }
      it = routes_.emplace(key, memoize(std::move(*path))).first;
    }
    return it->second;
  }

  /// Store `links` and return its handle.
  std::uint64_t memoize(std::vector<LinkId> links) {
    paths_.push_back(std::move(links));
    return paths_.size() - 1;
  }

  [[nodiscard]] std::span<const LinkId> path(std::uint64_t handle) const {
    return paths_[static_cast<std::size_t>(handle)];
  }

  const Topology& topology_;
  LinkLedger ledger_;

 private:
  std::vector<std::vector<LinkId>> paths_;
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> routes_;
};

/// Admit-all on the min-hop path; a call's bandwidth is its bottleneck
/// share, only known once it actually starts (and scored with the
/// share it started with, exactly like the single-link policy).
class NetBestEffortPolicy final : public RoutedPolicy {
 public:
  NetBestEffortPolicy(const Topology& topology, const NetPolicyConfig& config)
      : RoutedPolicy(topology) {
    config.validate();
  }

  Decision request(const FlowRequest& req) override {
    return Decision{true, false, req.start, req.rate, route(req.src, req.dst)};
  }

  double on_start(const FlowRequest&, const Decision& decision) override {
    const std::span<const LinkId> links = path(decision.held);
    ledger_.join(links);
    double share = std::numeric_limits<double>::infinity();
    for (const LinkId id : links) {
      share = std::min(share, ledger_.capacity(id) /
                                  static_cast<double>(ledger_.count(id)));
    }
    return share;
  }

  void on_end(const FlowRequest&, const Decision& decision, double) override {
    ledger_.leave(path(decision.held));
  }
};

/// Per-link reservation architecture: link l admits at most
/// k_max(π, C_l) concurrent calls, each at the fixed share C_l/k_max;
/// a path is admitted iff every link has a slot (atomic, counted).
class DirectReservationPolicy final : public RoutedPolicy {
 public:
  DirectReservationPolicy(const Topology& topology,
                          const NetPolicyConfig& config)
      : RoutedPolicy(topology) {
    config.validate();
    if (!config.pi) {
      throw std::invalid_argument("DirectReservationPolicy: utility required");
    }
    limits_.reserve(topology.link_count());
    shares_.reserve(topology.link_count());
    for (std::size_t i = 0; i < topology.link_count(); ++i) {
      const double capacity = topology.link(static_cast<LinkId>(i)).capacity;
      const auto k = core::k_max(*config.pi, capacity);
      if (!k) {
        throw std::invalid_argument(
            "DirectReservationPolicy: elastic utility has no k_max — "
            "admission control cannot help; use best effort");
      }
      limits_.push_back(static_cast<std::int64_t>(*k));
      shares_.push_back(capacity / static_cast<double>(*k));
    }
  }

  Decision request(const FlowRequest& req) override {
    const std::uint64_t handle = route(req.src, req.dst);
    const std::span<const LinkId> links = path(handle);
    if (!ledger_.try_admit_counted(links, limits_)) {
      return Decision{false, false, req.start, 0.0, 0};
    }
    double share = std::numeric_limits<double>::infinity();
    for (const LinkId id : links) {
      share = std::min(share, shares_[static_cast<std::size_t>(id)]);
    }
    return Decision{true, false, req.start, share, handle};
  }

  double on_start(const FlowRequest&, const Decision& decision) override {
    return decision.rate;
  }

  void on_end(const FlowRequest&, const Decision& decision, double) override {
    ledger_.release_counted(path(decision.held));
  }

 private:
  std::vector<std::int64_t> limits_;
  std::vector<double> shares_;
};

/// Circuit-style dynamic alternative routing with trunk reservation:
/// try the min-hop path at the requested rate; a refused adjacent-pair
/// call overflows to ONE two-hop alternate (chosen by its pre-drawn
/// route_draw) admitted only if every alternate link keeps more than
/// `trunk_reserve` circuits free.
class DarPolicy final : public RoutedPolicy {
 public:
  DarPolicy(const Topology& topology, const NetPolicyConfig& config)
      : RoutedPolicy(topology), trunk_reserve_(config.trunk_reserve) {
    config.validate();
  }

  Decision request(const FlowRequest& req) override {
    const std::uint64_t direct = route(req.src, req.dst);
    if (ledger_.try_admit_bandwidth(path(direct), req.rate)) {
      return Decision{true, false, req.start, req.rate, direct};
    }
    // Overflow is a single-link notion: only adjacent pairs have a
    // well-defined two-hop alternate in the DAR sense.
    if (path(direct).size() == 1) {
      const std::vector<std::uint64_t>& alternates =
          alternates_of(req.src, req.dst);
      if (!alternates.empty()) {
        const std::uint64_t alternate = alternates[static_cast<std::size_t>(
            req.route_draw % alternates.size())];
        // Trunk reservation: admit iff the grab leaves more than
        // trunk_reserve free on each alternate leg. With integer-
        // circuit rates "free - rate >= r" is exactly "free > r after
        // the grab", the Anagnostopoulos et al. rule.
        if (ledger_.try_admit_bandwidth(path(alternate), req.rate,
                                        trunk_reserve_)) {
          return Decision{true, true, req.start, req.rate, alternate};
        }
      }
    }
    return Decision{false, false, req.start, 0.0, 0};
  }

  double on_start(const FlowRequest&, const Decision& decision) override {
    return decision.rate;
  }

  void on_end(const FlowRequest& req, const Decision& decision,
              double) override {
    ledger_.release_bandwidth(path(decision.held), req.rate);
  }

 private:
  /// Handles of the two-hop paths src → via → dst, one per common
  /// neighbour in ascending via order.
  const std::vector<std::uint64_t>& alternates_of(NodeId src, NodeId dst) {
    const auto key = std::make_pair(src, dst);
    auto it = alternates_.find(key);
    if (it == alternates_.end()) {
      std::vector<std::uint64_t> handles;
      for (const NodeId via : topology_.two_hop_intermediates(src, dst)) {
        handles.push_back(memoize({*topology_.find_link(src, via),
                                   *topology_.find_link(via, dst)}));
      }
      it = alternates_.emplace(key, std::move(handles)).first;
    }
    return it->second;
  }

  const double trunk_reserve_;
  std::map<std::pair<NodeId, NodeId>, std::vector<std::uint64_t>> alternates_;
};

}  // namespace

std::unique_ptr<NetPolicy> make_net_policy(NetPolicyKind kind,
                                           const Topology& topology,
                                           const NetPolicyConfig& config) {
  switch (kind) {
    case NetPolicyKind::kBestEffort:
      return std::make_unique<NetBestEffortPolicy>(topology, config);
    case NetPolicyKind::kDirectReservation:
      return std::make_unique<DirectReservationPolicy>(topology, config);
    case NetPolicyKind::kDar:
      return std::make_unique<DarPolicy>(topology, config);
  }
  throw std::invalid_argument("make_net_policy: unknown NetPolicyKind");
}

}  // namespace bevr::net2
