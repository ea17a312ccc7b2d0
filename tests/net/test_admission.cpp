#include "bevr/net/admission.h"

#include <stdexcept>

#include <gtest/gtest.h>

namespace bevr::net {
namespace {

FlowSpec unit_flow(double rate = 1.0) {
  FlowSpec spec;
  spec.tspec.bucket_rate = rate;
  spec.tspec.peak_rate = rate;
  spec.rspec.rate = rate;
  return spec;
}

TEST(ParameterBasedAdmission, AdmitsUntilCapacity) {
  const ParameterBasedAdmission controller(1.0);
  LinkAdmissionState link{.capacity = 100.0, .reserved_sum = 0.0,
                          .measured_load = 0.0};
  // The paper's homogeneous case: unit flows on capacity 100 → exactly
  // k_max = 100 admissions.
  int admitted = 0;
  while (controller.admit(link, unit_flow()) && admitted < 1000) {
    link.reserved_sum += 1.0;
    ++admitted;
  }
  EXPECT_EQ(admitted, 100);
}

TEST(ParameterBasedAdmission, UtilizationBound) {
  const ParameterBasedAdmission controller(0.5);
  const LinkAdmissionState link{.capacity = 100.0, .reserved_sum = 49.5,
                                .measured_load = 0.0};
  EXPECT_FALSE(controller.admit(link, unit_flow()));
  EXPECT_TRUE(controller.admit(link, unit_flow(0.5)));
  EXPECT_THROW(ParameterBasedAdmission(0.0), std::invalid_argument);
  EXPECT_THROW(ParameterBasedAdmission(1.5), std::invalid_argument);
}

TEST(MeasurementBasedAdmission, UsesMeasuredLoadNotDeclaredSum) {
  const MeasurementBasedAdmission controller(0.9);
  // Declared reservations are high but measured usage is low: admit.
  const LinkAdmissionState idle{.capacity = 100.0, .reserved_sum = 89.0,
                                .measured_load = 20.0};
  EXPECT_TRUE(controller.admit(idle, unit_flow(10.0)));
  // Measured usage high: reject even if declared sum is low.
  const LinkAdmissionState busy{.capacity = 100.0, .reserved_sum = 5.0,
                                .measured_load = 85.0};
  EXPECT_FALSE(controller.admit(busy, unit_flow(10.0)));
}

TEST(MeasurementBasedAdmission, HigherUtilizationThanParameterBased) {
  // The Jamin et al. argument: measurement-based admission packs more
  // flows when declared rates overstate actual usage.
  const ParameterBasedAdmission parameter(0.9);
  const MeasurementBasedAdmission measurement(0.9);
  // 60 flows declared at rate 1 but actually sending 0.5 on average.
  const LinkAdmissionState link{.capacity = 100.0, .reserved_sum = 89.5,
                                .measured_load = 45.0};
  EXPECT_FALSE(parameter.admit(link, unit_flow()));
  EXPECT_TRUE(measurement.admit(link, unit_flow()));
}

TEST(FlowSpec, Validation) {
  FlowSpec spec = unit_flow();
  EXPECT_NO_THROW(spec.validate());
  spec.rspec.rate = 0.5;  // below the sustained rate
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = unit_flow();
  spec.tspec.peak_rate = 0.1;  // below bucket rate
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace bevr::net
