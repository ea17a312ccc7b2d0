// Network admission policies: the three routing/admission disciplines
// the net2 scenarios compare on identical arrival traces.
//
//  * kBestEffort         — admit every call on its min-hop path; the
//                          flows holding a link split its capacity
//                          evenly, and a call's achieved bandwidth is
//                          its bottleneck share. π is non-decreasing,
//                          so π(min_l b_l) = min_l π(b_l): scoring the
//                          bottleneck IS the per-link degradation
//                          composed along the path.
//  * kDirectReservation  — the paper's reservation architecture per
//                          link: link l admits at most k_max(π, C_l)
//                          calls, each granted the fixed share
//                          C_l/k_max; a path is admitted iff every
//                          link has a slot free (counted admission —
//                          integer slots dodge the C/k·k floating-
//                          point round-trip).
//  * kDar                — circuit-style dynamic alternative routing:
//                          try the min-hop path at the requested rate;
//                          if refused and the pair is adjacent, try
//                          ONE two-hop alternate (chosen by the call's
//                          pre-drawn route_draw) with trunk
//                          reservation r — every alternate link must
//                          keep more than r circuits free after the
//                          grab, protecting direct traffic from
//                          overflow cascades.
//
// Every policy is an admission::FlowPolicy, driven by the same engine
// as the single-link policies: `request` at submit (the routing +
// admission decision), `on_start` when an admitted call begins service
// (returns the bandwidth the engine scores through π), and `on_end` at
// departure. A decision holds the index of a path the policy memoizes
// (min-hop routes per pair, DAR's two-hop alternates per pair and
// via), so no link list is copied per call. Each policy owns its
// LinkLedger; the engine can audit it after every event.
#pragma once

#include <memory>
#include <string>

#include "bevr/admission/policy.h"
#include "bevr/net2/ledger.h"
#include "bevr/net2/topology.h"
#include "bevr/net2/trace.h"
#include "bevr/utility/utility.h"

namespace bevr::net2 {

enum class NetPolicyKind {
  kBestEffort,
  kDirectReservation,
  kDar,
};

[[nodiscard]] std::string to_string(NetPolicyKind kind);

struct NetPolicyConfig {
  /// Per-flow utility π; required by kDirectReservation (per-link
  /// k_max — throws for elastic utilities where k_max does not exist).
  std::shared_ptr<const utility::UtilityFunction> pi;
  /// kDar trunk reservation r: an alternate-routed call is admitted
  /// only if every alternate link keeps more than r circuits free.
  /// r = 0 disables the protection; on the two-node topology (no
  /// alternates exist) kDar reduces to plain per-link admission.
  double trunk_reserve = 0.0;

  /// Throws std::invalid_argument on out-of-range fields.
  void validate() const;
};

/// The network family: policies that hold paths on a LinkLedger.
class NetPolicy : public admission::FlowPolicy {
 public:
  /// The policy's per-link ledger — the engine's invariant-auditing
  /// sink calls ledger().audit() after every event.
  [[nodiscard]] virtual const LinkLedger& ledger() const = 0;
};

/// Build a policy over `topology`. The topology must outlive the
/// policy (held by reference).
[[nodiscard]] std::unique_ptr<NetPolicy> make_net_policy(
    NetPolicyKind kind, const Topology& topology,
    const NetPolicyConfig& config);

}  // namespace bevr::net2
