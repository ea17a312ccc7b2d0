#include "bevr/net/admission.h"

#include <stdexcept>

namespace bevr::net {

ParameterBasedAdmission::ParameterBasedAdmission(double utilization_bound)
    : bound_(utilization_bound) {
  if (!(bound_ > 0.0) || bound_ > 1.0) {
    throw std::invalid_argument(
        "ParameterBasedAdmission: utilization bound must lie in (0, 1]");
  }
}

bool ParameterBasedAdmission::admit(const LinkAdmissionState& link,
                                    const FlowSpec& request) const {
  request.validate();
  return link.reserved_sum + request.rspec.rate <= bound_ * link.capacity + 1e-12;
}

std::string ParameterBasedAdmission::name() const {
  return "ParameterBased(eta=" + std::to_string(bound_) + ")";
}

MeasurementBasedAdmission::MeasurementBasedAdmission(double utilization_bound)
    : bound_(utilization_bound) {
  if (!(bound_ > 0.0) || bound_ > 1.0) {
    throw std::invalid_argument(
        "MeasurementBasedAdmission: utilization bound must lie in (0, 1]");
  }
}

bool MeasurementBasedAdmission::admit(const LinkAdmissionState& link,
                                      const FlowSpec& request) const {
  request.validate();
  return link.measured_load + request.rspec.rate <=
         bound_ * link.capacity + 1e-12;
}

std::string MeasurementBasedAdmission::name() const {
  return "MeasurementBased(eta=" + std::to_string(bound_) + ")";
}

}  // namespace bevr::net
