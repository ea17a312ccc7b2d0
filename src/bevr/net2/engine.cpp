#include "bevr/net2/engine.h"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>

#include "bevr/obs/metrics.h"

namespace bevr::net2 {

NetReport run_network(const NetTrace& trace, NetPolicy& policy,
                      const utility::UtilityFunction& pi,
                      const NetEngineConfig& config) {
  for (const FlowRequest& req : trace.requests) {
    if (req.start != req.submit ||
        req.cancel < std::numeric_limits<double>::infinity()) {
      throw std::invalid_argument(
          "run_network: network calls start at submit and never cancel");
    }
  }
  static constexpr std::array<admission::FlowCounter, 4> kCounters{{
      {"net2/offered", &admission::FlowReport::offered},
      {"net2/admitted", &admission::FlowReport::admitted},
      {"net2/blocked", &admission::FlowReport::blocked},
      {"net2/alternate_routed", &admission::FlowReport::rerouted},
  }};
  static constexpr admission::FlowNames kNames{
      .admit = "net2/route_direct",
      .admit_code = obs::FlightCode::kAdmit,
      .reroute = "net2/route_alternate",
      .reroute_code = obs::FlightCode::kRouteAlternate,
      .block = "net2/block",
      .cancel = "net2/cancel",  // unused: network calls never cancel
      .counters = kCounters};
  const admission::FlowReport r = admission::run_flows(
      trace, policy, pi, config, kNames,
      {nullptr, [&policy] { policy.ledger().audit(); }});
  NetReport report{.offered = r.offered,
                   .admitted = r.admitted,
                   .blocked = r.blocked,
                   .alternate_routed = r.rerouted,
                   .mean_utility = r.mean_utility,
                   .blocking_probability = r.blocking_probability,
                   .mean_allocated_rate = r.mean_allocated_rate,
                   .peak_active = r.peak_active};
  const LinkLedger& ledger = policy.ledger();
  for (std::size_t i = 0; i < ledger.link_count(); ++i) {
    report.peak_link_count =
        std::max(report.peak_link_count,
                 ledger.peak_count(static_cast<LinkId>(i)));
  }
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  if (config.flush_obs && registry.enabled()) {
    registry.gauge("net2/peak_link_count")
        .set(static_cast<double>(report.peak_link_count));
  }
  return report;
}

}  // namespace bevr::net2
