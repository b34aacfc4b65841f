#include "grid/config.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace scal::grid {
namespace {

TEST(RmsKind, RoundTripsThroughStrings) {
  for (const RmsKind kind : kAllRmsKinds) {
    EXPECT_EQ(rms_from_string(to_string(kind)), kind);
  }
}

TEST(RmsKind, RejectsUnknownName) {
  EXPECT_THROW(rms_from_string("NOPE"), std::invalid_argument);
}

TEST(GridConfig, DefaultIsValid) {
  GridConfig config;
  config.topology.nodes = 100;
  EXPECT_NO_THROW(config.validate());
}

TEST(GridConfig, ClusterCountFloorsWithMinimumOne) {
  GridConfig config;
  config.topology.nodes = 100;
  config.cluster_size = 20;
  EXPECT_EQ(config.cluster_count(), 5u);
  config.topology.nodes = 119;
  EXPECT_EQ(config.cluster_count(), 5u);
  config.topology.nodes = 10;
  EXPECT_EQ(config.cluster_count(), 1u);
}

TEST(GridConfig, ValidationCatchesNonsense) {
  GridConfig good;
  good.topology.nodes = 100;

  auto expect_invalid = [](GridConfig c) {
    EXPECT_THROW(c.validate(), std::invalid_argument);
  };

  GridConfig c = good;
  c.topology.nodes = 2;
  expect_invalid(c);

  c = good;
  c.cluster_size = 2;
  expect_invalid(c);

  c = good;
  c.estimators_per_cluster = 0;
  expect_invalid(c);

  c = good;
  c.estimators_per_cluster = c.cluster_size;  // no room for resources
  expect_invalid(c);

  c = good;
  c.service_rate = 0.0;
  expect_invalid(c);

  c = good;
  c.horizon = -1.0;
  expect_invalid(c);

  c = good;
  c.tuning.update_interval = 0.0;
  expect_invalid(c);

  c = good;
  c.tuning.neighborhood_size = 0;
  expect_invalid(c);

  c = good;
  c.protocol.t_l = 1.5;
  expect_invalid(c);

  c = good;
  c.protocol.delta = 0.0;
  expect_invalid(c);

  // Non-finite values: an infinite horizon would never end the run.
  for (const double bad : {std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()}) {
    for (double GridConfig::*field :
         {&GridConfig::horizon, &GridConfig::service_rate,
          &GridConfig::sample_interval}) {
      c = good;
      c.*field = bad;
      expect_invalid(c);
    }
    for (double Tuning::*field :
         {&Tuning::update_interval, &Tuning::link_delay_scale,
          &Tuning::volunteer_interval, &Tuning::agg_flush}) {
      c = good;
      c.tuning.*field = bad;
      expect_invalid(c);
    }
  }
}

TEST(GridConfig, AllSevenKindsEnumerated) {
  EXPECT_EQ(std::size(kAllRmsKinds), 7u);
}

}  // namespace
}  // namespace scal::grid
