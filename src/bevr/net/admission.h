// Admission control algorithms (the "network exercises control" half
// of the integrated-services architecture, paper §1).
//
// Two families from the literature the paper draws on:
//  * parameter-based — admit iff declared reservations fit within a
//    utilisation bound of capacity (guaranteed service, RFC 2212);
//  * measurement-based — admit against a measured load estimate rather
//    than declared sums (controlled-load style; Jamin et al., ref [8]),
//    trading occasional overload for utilisation.
#pragma once

#include <memory>
#include <string>

#include "bevr/net/flowspec.h"

namespace bevr::net {

/// Per-link state visible to an admission decision.
struct LinkAdmissionState {
  double capacity = 0.0;        ///< link capacity
  double reserved_sum = 0.0;    ///< Σ admitted reservation rates
  double measured_load = 0.0;   ///< current measured load
};

class AdmissionController {
 public:
  virtual ~AdmissionController() = default;

  /// Decide whether the request fits on a link in the given state.
  [[nodiscard]] virtual bool admit(const LinkAdmissionState& link,
                                   const FlowSpec& request) const = 0;

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Parameter-based: Σ reserved + R ≤ η·C.
class ParameterBasedAdmission final : public AdmissionController {
 public:
  explicit ParameterBasedAdmission(double utilization_bound = 1.0);

  [[nodiscard]] bool admit(const LinkAdmissionState& link,
                           const FlowSpec& request) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double utilization_bound() const { return bound_; }

 private:
  double bound_;
};

/// Measurement-based: measured load + R ≤ η·C. The caller maintains
/// `measured_load` (RsvpPolicy feeds each link's actual usage to its
/// RsvpAgent).
class MeasurementBasedAdmission final : public AdmissionController {
 public:
  explicit MeasurementBasedAdmission(double utilization_bound = 0.9);

  [[nodiscard]] bool admit(const LinkAdmissionState& link,
                           const FlowSpec& request) const override;
  [[nodiscard]] std::string name() const override;

  [[nodiscard]] double utilization_bound() const { return bound_; }

 private:
  double bound_;
};

}  // namespace bevr::net
