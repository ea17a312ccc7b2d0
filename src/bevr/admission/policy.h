// Admission policies: the three control disciplines the admission
// scenarios compare on identical arrival traces.
//
//  * kBestEffort     — admit everything; active flows split the link
//                      evenly (the paper's best-effort architecture).
//  * kOnlineKmax     — reserve a fixed share C/k_max per flow, where
//                      k_max = argmax_k k·π(C/k) from the fixed-load
//                      model; admission is a calendar booking at that
//                      share, so at most k_max flows overlap (the
//                      paper's reservation architecture, run online).
//  * kAdvanceBooking — book the requested rate over [start, end) on
//                      the capacity calendar ahead of time; a request
//                      that does not fit may accept the calendar's
//                      reduced-rate counteroffer or shift its start
//                      (malleable reservations).
//
// Every policy, single-link, network (net2) or RSVP (net), implements
// FlowPolicy, the interface the one flow engine drives: `request` at
// submit (the admission decision; calendar bookings, path grabs and
// RSVP reservations happen here), `on_start` when an admitted flow
// begins service (returns the bandwidth actually allocated — best
// effort only knows its share now), `on_end` at departure and
// `on_cancel` at a pre-start retraction (each releases what the
// decision holds).
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "bevr/admission/calendar.h"
#include "bevr/admission/trace.h"
#include "bevr/utility/utility.h"

namespace bevr::admission {

enum class PolicyKind {
  kBestEffort,
  kOnlineKmax,
  kAdvanceBooking,
};

[[nodiscard]] std::string to_string(PolicyKind kind);

struct PolicyConfig {
  double capacity = 100.0;
  /// Per-flow utility π; required by kOnlineKmax (which throws for
  /// elastic utilities where k_max does not exist).
  std::shared_ptr<const utility::UtilityFunction> pi;
  double tick = 0.25;  ///< calendar slice width
  /// kAdvanceBooking malleability: accept a reduced-rate counteroffer
  /// down to this fraction of the requested rate (1.0 = rigid) ...
  double min_rate_fraction = 1.0;
  /// ... and/or retry the full rate at starts shifted by multiples of
  /// shift_step, up to max_start_shift later (0.0 = no shifting).
  double max_start_shift = 0.0;
  double shift_step = 0.5;
};

class FlowPolicy {
 public:
  /// Outcome of an admission request.
  struct Decision {
    bool admitted = false;
    /// Admitted other than as asked: a calendar counteroffer or start
    /// shift, or a network call on its two-hop alternate.
    bool rerouted = false;
    double start = 0.0;  ///< granted start (may be shifted)
    double rate = 0.0;   ///< granted rate (may be reduced)
    /// What the decision holds, read back at on_start / on_end /
    /// on_cancel: a calendar booking id (0 = none), or the index of a
    /// path the network policy memoizes.
    std::uint64_t held = 0;
  };

  virtual ~FlowPolicy() = default;

  /// Admission decision at submit time; books or grabs on success.
  [[nodiscard]] virtual Decision request(const FlowRequest& req) = 0;

  /// The flow begins service; returns the allocated bandwidth (what
  /// the engine scores through π).
  [[nodiscard]] virtual double on_start(const FlowRequest& req,
                                        const Decision& decision) = 0;

  /// The flow departs at `now` after being served (on_start ran).
  /// Releases what the decision holds.
  virtual void on_end(const FlowRequest& req, const Decision& decision,
                      double now) = 0;

  /// The flow is retracted at `now` before its start (on_start never
  /// ran — the flow holds no bandwidth, only a booking). Defaults to
  /// on_end, which is right for calendar policies where "end" means
  /// "release the booking"; best effort overrides it to a no-op since
  /// a never-started flow has no share to give back.
  virtual void on_cancel(const FlowRequest& req, const Decision& decision,
                         double now) {
    on_end(req, decision, now);
  }
};

/// The single-link family: policies that may book a capacity calendar.
class AdmissionPolicy : public FlowPolicy {
 public:
  /// The policy's calendar, or nullptr (best effort keeps none).
  [[nodiscard]] virtual const CapacityCalendar* calendar() const {
    return nullptr;
  }
};

[[nodiscard]] std::unique_ptr<AdmissionPolicy> make_policy(
    PolicyKind kind, const PolicyConfig& config);

}  // namespace bevr::admission
