#include "bevr/net2/policy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

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

/// Shared routing state: min-hop paths memoised per node pair (they
/// are pure functions of the topology, so caching cannot change any
/// outcome — it only keeps request() off the BFS in steady state).
class RoutedPolicy : public NetPolicy {
 public:
  explicit RoutedPolicy(const Topology& topology)
      : topology_(topology), ledger_(topology) {}

  [[nodiscard]] const LinkLedger& ledger() const override { return ledger_; }

 protected:
  const std::vector<LinkId>& route(NodeId src, NodeId dst) {
    const auto key = std::make_pair(src, dst);
    auto it = routes_.find(key);
    if (it == routes_.end()) {
      auto path = topology_.shortest_path(src, dst);
      if (!path) {
        throw std::invalid_argument("NetPolicy: no route between nodes " +
                                    std::to_string(src) + " and " +
                                    std::to_string(dst));
      }
      it = routes_.emplace(key, std::move(*path)).first;
    }
    return it->second;
  }

  const Topology& topology_;
  LinkLedger ledger_;

 private:
  std::map<std::pair<NodeId, NodeId>, std::vector<LinkId>> routes_;
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

  Decision request(const NetFlowRequest& req) override {
    return Decision{true, false, req.rate, route(req.src, req.dst)};
  }

  double on_start(const NetFlowRequest&, const Decision& decision) override {
    ledger_.join(decision.path);
    double share = std::numeric_limits<double>::infinity();
    for (const LinkId id : decision.path) {
      share = std::min(share, ledger_.capacity(id) /
                                  static_cast<double>(ledger_.count(id)));
    }
    return share;
  }

  void on_end(const NetFlowRequest&, const Decision& decision) override {
    ledger_.leave(decision.path);
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

  Decision request(const NetFlowRequest& req) override {
    const std::vector<LinkId>& path = route(req.src, req.dst);
    if (!ledger_.try_admit_counted(path, limits_)) {
      return Decision{false, false, 0.0, {}};
    }
    double share = std::numeric_limits<double>::infinity();
    for (const LinkId id : path) {
      share = std::min(share, shares_[static_cast<std::size_t>(id)]);
    }
    return Decision{true, false, share, path};
  }

  double on_start(const NetFlowRequest&, const Decision& decision) override {
    return decision.rate;
  }

  void on_end(const NetFlowRequest&, const Decision& decision) override {
    ledger_.release_counted(decision.path);
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

  Decision request(const NetFlowRequest& req) override {
    const std::vector<LinkId>& direct = route(req.src, req.dst);
    if (ledger_.try_admit_bandwidth(direct, req.rate)) {
      return Decision{true, false, req.rate, direct};
    }
    // Overflow is a single-link notion: only adjacent pairs have a
    // well-defined two-hop alternate in the DAR sense.
    if (direct.size() == 1) {
      const std::vector<NodeId>& vias = alternates(req.src, req.dst);
      if (!vias.empty()) {
        const NodeId via =
            vias[static_cast<std::size_t>(req.route_draw % vias.size())];
        const std::vector<LinkId> alt{*topology_.find_link(req.src, via),
                                      *topology_.find_link(via, req.dst)};
        // Trunk reservation: admit iff the grab leaves more than
        // trunk_reserve free on each alternate leg. With integer-
        // circuit rates "free - rate >= r" is exactly "free > r after
        // the grab", the Anagnostopoulos et al. rule.
        if (ledger_.try_admit_bandwidth(alt, req.rate, trunk_reserve_)) {
          return Decision{true, true, req.rate, alt};
        }
      }
    }
    return Decision{false, false, 0.0, {}};
  }

  double on_start(const NetFlowRequest&, const Decision& decision) override {
    return decision.rate;
  }

  void on_end(const NetFlowRequest& req, const Decision& decision) override {
    ledger_.release_bandwidth(decision.path, req.rate);
  }

 private:
  const std::vector<NodeId>& alternates(NodeId src, NodeId dst) {
    const auto key = std::make_pair(src, dst);
    auto it = vias_.find(key);
    if (it == vias_.end()) {
      it = vias_.emplace(key, topology_.two_hop_intermediates(src, dst)).first;
    }
    return it->second;
  }

  const double trunk_reserve_;
  std::map<std::pair<NodeId, NodeId>, std::vector<NodeId>> vias_;
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
