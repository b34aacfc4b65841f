#include "rms/session.hpp"

#include <gtest/gtest.h>

#include "net/tree_cache.hpp"
#include "obs/telemetry.hpp"
#include "rms/scenario.hpp"

namespace scal::rms {
namespace {

grid::GridConfig small_config() {
  grid::GridConfig config;
  config.rms = grid::RmsKind::kLowest;
  config.topology.nodes = 80;
  config.cluster_size = 20;
  config.horizon = 300.0;
  config.workload.mean_interarrival = 1.0;
  config.seed = 42;
  return config;
}

void expect_identical(const grid::SimulationResult& a,
                      const grid::SimulationResult& b) {
  EXPECT_EQ(a.F, b.F);
  EXPECT_EQ(a.G_scheduler, b.G_scheduler);
  EXPECT_EQ(a.G_estimator, b.G_estimator);
  EXPECT_EQ(a.G_middleware, b.G_middleware);
  EXPECT_EQ(a.H_control, b.H_control);
  EXPECT_EQ(a.H_wasted, b.H_wasted);
  EXPECT_EQ(a.jobs_arrived, b.jobs_arrived);
  EXPECT_EQ(a.jobs_completed, b.jobs_completed);
  EXPECT_EQ(a.network_messages, b.network_messages);
  EXPECT_EQ(a.events_dispatched, b.events_dispatched);
}

TEST(SimulationSession, ReusesSystemAcrossTuningChanges) {
  grid::GridConfig base = small_config();
  grid::GridConfig retuned = base;
  retuned.tuning.update_interval = 35.0;
  retuned.tuning.neighborhood_size = 2;

  SimulationSession session;
  expect_identical(session.run(base), Scenario(base).run());
  expect_identical(session.run(retuned), Scenario(retuned).run());
  expect_identical(session.run(base), Scenario(base).run());
  // Three runs, one construction: the tuning-only changes were resets.
  EXPECT_EQ(session.rebuilds(), 1u);
}

TEST(SimulationSession, RebuildsOnStructuralChange) {
  grid::GridConfig base = small_config();
  grid::GridConfig bigger = base;
  bigger.topology.nodes = 100;

  SimulationSession session;
  session.run(base);
  expect_identical(session.run(bigger), Scenario(bigger).run());
  EXPECT_EQ(session.rebuilds(), 2u);
  // And the bigger system is itself reusable from here on.
  grid::GridConfig bigger_tuned = bigger;
  bigger_tuned.tuning.link_delay_scale = 1.4;
  expect_identical(session.run(bigger_tuned), Scenario(bigger_tuned).run());
  EXPECT_EQ(session.rebuilds(), 2u);
}

TEST(SimulationSession, TreeSharingIsResultInvisible) {
  // Sessions opt their systems into the shared router-tree cache; the
  // results must be bit-identical to the one-shot Scenario::run() path,
  // which builds without sharing.
  net::SharedTreeCache::instance().clear();
  const grid::GridConfig config = small_config();

  SimulationSession sharing;
  expect_identical(sharing.run(config), Scenario(config).run());
  // The sharing session really published trees for others to adopt.
  EXPECT_GT(net::SharedTreeCache::instance().publishes(), 0u);
  net::SharedTreeCache::instance().clear();
}

TEST(SimulationSession, TelemetryKeepsSharingOff) {
  // Adopted trees would skew the profiler's net.route scope counts, so
  // an instrumented run must never share (manifests stay byte-stable).
  net::SharedTreeCache::instance().clear();
  grid::GridConfig config = small_config();
  obs::Telemetry telemetry{{}};
  config.telemetry = &telemetry;

  SimulationSession session;
  (void)session.run(config);
  EXPECT_EQ(net::SharedTreeCache::instance().publishes(), 0u);
  EXPECT_EQ(net::SharedTreeCache::instance().size(), 0u);
}

TEST(SessionPool, SlotsAreLazyAndStable) {
  SessionPool pool;
  EXPECT_EQ(pool.size(), 0u);
  SimulationSession& s2 = pool.slot(2);
  EXPECT_EQ(pool.size(), 3u);
  SimulationSession& s0 = pool.slot(0);
  // Growth must not move existing sessions (deque-backed stability).
  EXPECT_EQ(&pool.slot(2), &s2);
  EXPECT_EQ(&pool.slot(0), &s0);
  pool.slot(5);
  EXPECT_EQ(pool.size(), 6u);
  EXPECT_EQ(&pool.slot(2), &s2);
}

}  // namespace
}  // namespace scal::rms
