#include "bevr/admission/policy.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bevr/core/fixed_load.h"

namespace bevr::admission {

std::string to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kBestEffort:
      return "best_effort";
    case PolicyKind::kOnlineKmax:
      return "online_kmax";
    case PolicyKind::kAdvanceBooking:
      return "advance_booking";
  }
  throw std::invalid_argument("to_string: unknown PolicyKind");
}

namespace {

void validate_common(const PolicyConfig& config) {
  if (!(config.capacity > 0.0) || !std::isfinite(config.capacity)) {
    throw std::invalid_argument(
        "PolicyConfig: capacity must be finite and > 0");
  }
  if (!(config.tick > 0.0) || !std::isfinite(config.tick)) {
    throw std::invalid_argument("PolicyConfig: tick must be finite and > 0");
  }
}

/// Admit-all: no calendar, no state beyond the live count; the share
/// is only known once the flow actually starts.
class BestEffortPolicy final : public AdmissionPolicy {
 public:
  explicit BestEffortPolicy(const PolicyConfig& config)
      : capacity_(config.capacity) {
    validate_common(config);
  }

  Decision request(const FlowRequest& req) override {
    return Decision{true, false, req.start, req.rate, 0};
  }

  double on_start(const FlowRequest&, const Decision&) override {
    ++active_;
    return capacity_ / static_cast<double>(active_);
  }

  void on_end(const FlowRequest&, const Decision&, double) override {
    if (active_ > 0) --active_;
  }

  void on_cancel(const FlowRequest&, const Decision&, double) override {
    // Never started: holds no share, so the active count is untouched.
  }

 private:
  const double capacity_;
  std::uint64_t active_ = 0;
};

/// The reservation architecture run online: every flow gets the fixed
/// share C/k_max, so a calendar booking at that share admits iff fewer
/// than k_max reservations overlap the window.
class OnlineKmaxPolicy final : public AdmissionPolicy {
 public:
  explicit OnlineKmaxPolicy(const PolicyConfig& config)
      : calendar_(CapacityCalendar::Options{config.capacity, config.tick}) {
    validate_common(config);
    if (!config.pi) {
      throw std::invalid_argument("OnlineKmaxPolicy: utility required");
    }
    const auto k = core::k_max(*config.pi, config.capacity);
    if (!k) {
      throw std::invalid_argument(
          "OnlineKmaxPolicy: elastic utility has no k_max — admission "
          "control cannot help; use best effort");
    }
    share_ = config.capacity / static_cast<double>(*k);
  }

  Decision request(const FlowRequest& req) override {
    calendar_.expire_until(req.submit);  // keep the live index tight
    const auto offer =
        calendar_.reserve(req.start, req.start + req.duration, share_);
    if (!offer.admitted) return Decision{false, false, req.start, 0.0, 0};
    return Decision{true, false, req.start, share_, offer.id};
  }

  double on_start(const FlowRequest&, const Decision& decision) override {
    return decision.rate;
  }

  void on_end(const FlowRequest&, const Decision& decision,
              double now) override {
    if (decision.held != 0) calendar_.release(decision.held, now);
  }

  [[nodiscard]] const CapacityCalendar* calendar() const override {
    return &calendar_;
  }

 private:
  CapacityCalendar calendar_;
  double share_ = 0.0;
};

/// Advance bookings at the requested rate, with two malleability axes
/// when the calendar counters: accept a reduced rate down to
/// min_rate_fraction of the ask, or shift the start by multiples of
/// shift_step up to max_start_shift.
class AdvanceBookingPolicy final : public AdmissionPolicy {
 public:
  explicit AdvanceBookingPolicy(const PolicyConfig& config)
      : calendar_(CapacityCalendar::Options{config.capacity, config.tick}),
        min_rate_fraction_(config.min_rate_fraction),
        max_start_shift_(config.max_start_shift),
        shift_step_(config.shift_step) {
    validate_common(config);
    if (!(min_rate_fraction_ > 0.0) || !(min_rate_fraction_ <= 1.0)) {
      throw std::invalid_argument(
          "AdvanceBookingPolicy: min_rate_fraction must lie in (0, 1]");
    }
    if (!(max_start_shift_ >= 0.0) || !std::isfinite(max_start_shift_)) {
      throw std::invalid_argument(
          "AdvanceBookingPolicy: max_start_shift must be finite and >= 0");
    }
    if (max_start_shift_ > 0.0 && !(shift_step_ > 0.0)) {
      throw std::invalid_argument(
          "AdvanceBookingPolicy: shifting needs shift_step > 0");
    }
  }

  Decision request(const FlowRequest& req) override {
    calendar_.expire_until(req.submit);  // keep the live index tight
    const auto offer =
        calendar_.reserve(req.start, req.start + req.duration, req.rate);
    if (offer.admitted) {
      return Decision{true, false, req.start, req.rate, offer.id};
    }
    // Counteroffer path 1: take the suggested (reduced) rate if it
    // keeps at least min_rate_fraction of the ask.
    if (offer.suggested >= min_rate_fraction_ * req.rate &&
        offer.suggested > 0.0) {
      const auto reduced = calendar_.reserve(
          req.start, req.start + req.duration, offer.suggested);
      if (reduced.admitted) {
        return Decision{true, true, req.start, offer.suggested, reduced.id};
      }
    }
    // Counteroffer path 2: full rate at a later start.
    for (double shift = shift_step_;
         shift <= max_start_shift_ + 1e-12 * max_start_shift_;
         shift += shift_step_) {
      const double start = req.start + shift;
      const auto shifted =
          calendar_.reserve(start, start + req.duration, req.rate);
      if (shifted.admitted) {
        return Decision{true, true, start, req.rate, shifted.id};
      }
    }
    return Decision{false, false, req.start, 0.0, 0};
  }

  double on_start(const FlowRequest&, const Decision& decision) override {
    return decision.rate;
  }

  void on_end(const FlowRequest&, const Decision& decision,
              double now) override {
    if (decision.held != 0) calendar_.release(decision.held, now);
  }

  [[nodiscard]] const CapacityCalendar* calendar() const override {
    return &calendar_;
  }

 private:
  CapacityCalendar calendar_;
  const double min_rate_fraction_;
  const double max_start_shift_;
  const double shift_step_;
};

}  // namespace

std::unique_ptr<AdmissionPolicy> make_policy(PolicyKind kind,
                                             const PolicyConfig& config) {
  switch (kind) {
    case PolicyKind::kBestEffort:
      return std::make_unique<BestEffortPolicy>(config);
    case PolicyKind::kOnlineKmax:
      return std::make_unique<OnlineKmaxPolicy>(config);
    case PolicyKind::kAdvanceBooking:
      return std::make_unique<AdvanceBookingPolicy>(config);
  }
  throw std::invalid_argument("make_policy: unknown PolicyKind");
}

}  // namespace bevr::admission
