#include "grid/sampler.hpp"

#include <gtest/gtest.h>

#include "rms/scenario.hpp"

namespace scal::grid {
namespace {

GridConfig sampled_config(double interval, double ia = 1.0) {
  GridConfig config;
  config.rms = RmsKind::kLowest;
  config.topology.nodes = 80;
  config.horizon = 400.0;
  config.workload.mean_interarrival = ia;
  config.sample_interval = interval;
  return config;
}

TEST(StateSampler, OffByDefault) {
  auto system = Scenario(sampled_config(0.0)).build();
  system->run();
  EXPECT_EQ(system->sampler(), nullptr);
}

TEST(StateSampler, SamplesOnCadence) {
  auto system = Scenario(sampled_config(50.0)).build();
  system->run();
  ASSERT_NE(system->sampler(), nullptr);
  const auto& samples = system->sampler()->samples();
  // t = 0, 50, ..., 400 inclusive.
  ASSERT_EQ(samples.size(), 9u);
  EXPECT_DOUBLE_EQ(samples.front().at, 0.0);
  EXPECT_DOUBLE_EQ(samples[1].at, 50.0);
  EXPECT_DOUBLE_EQ(samples.back().at, 400.0);
}

TEST(StateSampler, ValuesAreSane) {
  auto system = Scenario(sampled_config(25.0)).build();
  system->run();
  const auto& samples = system->sampler()->samples();
  // First sample: empty system.
  EXPECT_DOUBLE_EQ(samples.front().pool_busy_fraction, 0.0);
  bool saw_busy = false;
  for (const StateSample& s : samples) {
    EXPECT_GE(s.pool_busy_fraction, 0.0);
    EXPECT_LE(s.pool_busy_fraction, 1.0);
    EXPECT_GE(s.hottest_cluster_busy, s.pool_busy_fraction - 1e-12);
    EXPECT_GE(s.max_resource_load, s.mean_resource_load - 1e-12);
    saw_busy = saw_busy || s.pool_busy_fraction > 0.0;
  }
  EXPECT_TRUE(saw_busy);
}

TEST(StateSampler, OverloadShowsRisingBacklog) {
  auto light = Scenario(sampled_config(50.0, /*ia=*/4.0)).build();
  light->run();
  auto heavy = Scenario(sampled_config(50.0, /*ia=*/0.2)).build();
  heavy->run();
  const auto& l = light->sampler()->samples();
  const auto& h = heavy->sampler()->samples();
  EXPECT_GT(h.back().mean_resource_load, l.back().mean_resource_load);
  EXPECT_GT(h.back().pool_busy_fraction, 0.9);
}

TEST(StateSampler, RejectsBadInterval) {
  auto system = Scenario(sampled_config(0.0)).build();
  EXPECT_THROW(StateSampler(*system, 999, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace scal::grid
