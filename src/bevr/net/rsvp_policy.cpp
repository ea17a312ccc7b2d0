#include "bevr/net/rsvp_policy.h"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "bevr/obs/flight_recorder.h"

namespace bevr::net {

RsvpPolicy::RsvpPolicy(std::shared_ptr<const net2::Topology> topology,
                       std::shared_ptr<const AdmissionController> admission,
                       double utilization)
    // The agent rejects a null topology or controller before loads_
    // reads the topology.
    : agent_(topology, std::move(admission),
             /*refresh_timeout=*/std::numeric_limits<double>::infinity()),
      utilization_(utilization),
      loads_(topology->link_count()) {
  if (!(utilization > 0.0) || utilization > 1.0) {
    throw std::invalid_argument("RsvpPolicy: utilization must lie in (0, 1]");
  }
}

RsvpPolicy::Decision RsvpPolicy::request(const admission::FlowRequest& req) {
  const auto session = agent_.open_session(req.src, req.dst, req.submit);
  if (!session) {
    throw std::invalid_argument("RsvpPolicy: no route between nodes " +
                                std::to_string(req.src) + " and " +
                                std::to_string(req.dst));
  }
  FlowSpec spec;
  spec.tspec.bucket_rate = req.rate;
  spec.tspec.peak_rate = req.rate;
  spec.tspec.bucket_depth = req.rate;
  spec.rspec.rate = req.rate;
  if (agent_.reserve(*session, spec, req.submit) != ResvResult::kCommitted) {
    agent_.teardown(*session, req.submit);  // drop the path state
    return {};
  }
  add_load(*session, req.rate);
  return Decision{true, false, req.start, req.rate, *session};
}

double RsvpPolicy::on_start(const admission::FlowRequest& /*req*/,
                            const Decision& decision) {
  return decision.rate;
}

void RsvpPolicy::on_end(const admission::FlowRequest& /*req*/,
                        const Decision& decision, double now) {
  add_load(decision.held, -decision.rate);
  agent_.teardown(decision.held, now);
}

void RsvpPolicy::add_load(SessionId session, double rate) {
  for (const LinkId lid : agent_.path(session)) {
    LinkLoad& link = loads_[static_cast<std::size_t>(lid)];
    link.reserved += rate;
    link.measured += rate * utilization_;
    agent_.set_measured_load(lid, std::max(0.0, link.measured));
    peak_reserved_ = std::max(peak_reserved_, link.reserved);
    peak_usage_ = std::max(peak_usage_, link.measured);
  }
}

admission::FlowReport run_reservations(const admission::ArrivalTrace& trace,
                                       admission::FlowPolicy& policy,
                                       const utility::UtilityFunction& pi,
                                       const admission::EngineConfig& config) {
  for (const admission::FlowRequest& req : trace.requests) {
    if (req.start != req.submit ||
        req.cancel < std::numeric_limits<double>::infinity()) {
      throw std::invalid_argument(
          "run_reservations: RSVP calls start at submit and never cancel");
    }
  }
  static constexpr std::array<admission::FlowCounter, 2> kCounters{{
      {"net/flows/attempted", &admission::FlowReport::offered},
      {"net/flows/blocked", &admission::FlowReport::blocked},
  }};
  static constexpr admission::FlowNames kNames{
      .admit = "net/reserve",
      .admit_code = obs::FlightCode::kAdmit,
      .reroute = "net/reserve",  // unused: a call holds its one path
      .reroute_code = obs::FlightCode::kAdmit,
      .block = "net/block",
      .cancel = "net/cancel",  // unused: calls never cancel
      .counters = kCounters};
  return admission::run_flows(trace, policy, pi, config, kNames, {});
}

}  // namespace bevr::net
