// RSVP signalling as a flow policy: the reservation network the paper
// abstracts into per-link admission (k_max), replayed on the one flow
// engine (admission/engine.h) like every other policy family.
//
// Each call in the trace signals a reservation along its min-hop path:
// at submit RsvpPolicy opens a session (PATH) and reserves the call's
// rate hop by hop (RESV) through the AdmissionController; a refused
// call is torn down and blocked. An admitted call holds its reserved
// rate until departure, when the session is torn down. Soft state
// never expires within a run: calls release explicitly.
//
// Each link's measured load — the sum over its admitted calls of
// rate × utilization — is fed to the agent, so a measurement-based
// controller sees what flows send rather than what they declared
// (utilization below 1 lets it overbook; Jamin et al., ref [8]). A
// parameter-based controller ignores it.
//
// run_reservations replays a trace under the net/* names: decision
// events net/reserve and net/block (flight codes ADMIT and BLOCK), and
// the counters net/flows/attempted and net/flows/blocked. The agent
// itself counts net/reservations/{granted,denied}. RSVP reserves at
// submit, so a call must start when it submits and never cancel.
#pragma once

#include <memory>
#include <vector>

#include "bevr/admission/engine.h"
#include "bevr/admission/policy.h"
#include "bevr/admission/trace.h"
#include "bevr/net/admission.h"
#include "bevr/net/rsvp.h"
#include "bevr/net2/topology.h"
#include "bevr/utility/utility.h"

namespace bevr::net {

class RsvpPolicy final : public admission::FlowPolicy {
 public:
  /// `utilization` is the fraction of its reservation an admitted call
  /// sends, in (0, 1]. Throws std::invalid_argument for a null input
  /// or a utilization outside that range.
  RsvpPolicy(std::shared_ptr<const net2::Topology> topology,
             std::shared_ptr<const AdmissionController> admission,
             double utilization = 1.0);

  /// Opens a session from req.src to req.dst and reserves req.rate
  /// along it; Decision::held is the session id. Throws
  /// std::invalid_argument for a pair the topology cannot route.
  [[nodiscard]] Decision request(const admission::FlowRequest& req) override;

  /// The reserved rate.
  [[nodiscard]] double on_start(const admission::FlowRequest& req,
                                const Decision& decision) override;

  /// Tears the session down.
  void on_end(const admission::FlowRequest& req, const Decision& decision,
              double now) override;

  /// Largest Σ reserved rate any link held.
  [[nodiscard]] double peak_reserved() const { return peak_reserved_; }
  /// Largest measured load any link carried.
  [[nodiscard]] double peak_usage() const { return peak_usage_; }

 private:
  /// What the admitted calls put on one link, as running sums.
  struct LinkLoad {
    double reserved = 0.0;  ///< Σ reserved rate
    double measured = 0.0;  ///< Σ reserved rate × utilization
  };

  /// Adds a call's `rate` (negative to remove it) to each link of the
  /// session's path, feeds the agent the new measured loads, and
  /// tracks the peaks.
  void add_load(SessionId session, double rate);

  RsvpAgent agent_;
  double utilization_;
  std::vector<LinkLoad> loads_;  ///< per link
  double peak_reserved_ = 0.0;
  double peak_usage_ = 0.0;
};

/// Replay `trace` against `policy` (an RsvpPolicy, or a decorator
/// around one) on the flow engine, scoring each call's reserved rate
/// through `pi`. Throws std::invalid_argument before anything runs for
/// a request with start != submit or a finite cancel, and for any
/// request run_flows rejects.
[[nodiscard]] admission::FlowReport run_reservations(
    const admission::ArrivalTrace& trace, admission::FlowPolicy& policy,
    const utility::UtilityFunction& pi,
    const admission::EngineConfig& config = {});

}  // namespace bevr::net
