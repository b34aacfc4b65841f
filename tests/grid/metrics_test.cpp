#include "grid/metrics.hpp"

#include <gtest/gtest.h>

namespace scal::grid {
namespace {

workload::Job job_with(double exec, double arrival, double factor) {
  workload::Job j;
  j.exec_time = exec;
  j.arrival = arrival;
  j.benefit_factor = factor;
  j.job_class = exec <= 700.0 ? workload::JobClass::kLocal
                              : workload::JobClass::kRemote;
  return j;
}

TEST(MetricsCollector, ArrivalClassCounting) {
  MetricsCollector m;
  m.record_arrival(job_with(100.0, 0.0, 3.0));
  m.record_arrival(job_with(900.0, 1.0, 3.0));
  EXPECT_EQ(m.jobs_arrived(), 2u);
  EXPECT_EQ(m.jobs_local(), 1u);
  EXPECT_EQ(m.jobs_remote(), 1u);
}

TEST(MetricsCollector, SuccessWithinBenefitWindow) {
  MetricsCollector m;
  const auto j = job_with(100.0, 10.0, 2.0);
  // Response 19 <= 2 * service(10) = 20: success.
  m.record_completion(j, 29.0, 10.0, 0.5);
  EXPECT_EQ(m.jobs_succeeded(), 1u);
  EXPECT_DOUBLE_EQ(m.useful_work(), 10.0);
  EXPECT_DOUBLE_EQ(m.wasted_work(), 0.0);
  EXPECT_DOUBLE_EQ(m.control_overhead(), 0.5);
}

TEST(MetricsCollector, MissBeyondBenefitWindow) {
  MetricsCollector m;
  const auto j = job_with(100.0, 10.0, 2.0);
  // Response 21 > 20: miss; its work counts as waste.
  m.record_completion(j, 31.0, 10.0, 0.5);
  EXPECT_EQ(m.jobs_missed_deadline(), 1u);
  EXPECT_DOUBLE_EQ(m.useful_work(), 0.0);
  EXPECT_DOUBLE_EQ(m.wasted_work(), 10.0);
}

TEST(MetricsCollector, ExactBoundaryCountsAsSuccess) {
  MetricsCollector m;
  const auto j = job_with(100.0, 0.0, 2.0);
  m.record_completion(j, 20.0, 10.0, 0.0);
  EXPECT_EQ(m.jobs_succeeded(), 1u);
}

TEST(MetricsCollector, UnfinishedAddsWaste) {
  MetricsCollector m;
  m.record_unfinished(7.5);
  EXPECT_EQ(m.jobs_unfinished(), 1u);
  EXPECT_DOUBLE_EQ(m.wasted_work(), 7.5);
}

TEST(MetricsCollector, ResponseTimeSamplesRecorded) {
  MetricsCollector m;
  m.record_completion(job_with(10.0, 0.0, 100.0), 5.0, 1.0, 0.0);
  m.record_completion(job_with(10.0, 0.0, 100.0), 15.0, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(m.response_times().mean(), 10.0);
}

TEST(SimulationResult, EfficiencyFormula) {
  SimulationResult r;
  r.F = 40.0;
  r.G_scheduler = 20.0;
  r.G_estimator = 15.0;
  r.G_middleware = 5.0;
  r.H_control = 10.0;
  r.H_wasted = 10.0;
  EXPECT_DOUBLE_EQ(r.G(), 40.0);
  EXPECT_DOUBLE_EQ(r.H(), 20.0);
  EXPECT_DOUBLE_EQ(r.efficiency(), 0.4);
}

TEST(SimulationResult, ZeroWorkZeroEfficiency) {
  SimulationResult r;
  EXPECT_DOUBLE_EQ(r.efficiency(), 0.0);
}

TEST(MetricsCollector, ProtocolCounters) {
  MetricsCollector m;
  m.count_poll();
  m.count_poll();
  m.count_transfer();
  m.count_auction();
  m.count_advert();
  m.count_update_received();
  m.count_update_suppressed();
  EXPECT_EQ(m.polls(), 2u);
  EXPECT_EQ(m.transfers(), 1u);
  EXPECT_EQ(m.auctions(), 1u);
  EXPECT_EQ(m.adverts(), 1u);
  EXPECT_EQ(m.updates_received(), 1u);
  EXPECT_EQ(m.updates_suppressed(), 1u);
}

TEST(MetricsCollector, SnapshotMirrorsAccessors) {
  MetricsCollector m;
  m.record_arrival(job_with(100.0, 0.0, 3.0));
  m.record_completion(job_with(100.0, 10.0, 2.0), 29.0, 10.0, 0.5);
  m.record_unfinished(3.0);
  m.count_poll();
  m.count_transfer();
  m.count_update_received();

  const MetricsSnapshot s = m.snapshot();
  EXPECT_DOUBLE_EQ(s.useful_work, m.useful_work());
  EXPECT_DOUBLE_EQ(s.wasted_work, m.wasted_work());
  EXPECT_DOUBLE_EQ(s.control_overhead, m.control_overhead());
  EXPECT_EQ(s.jobs_arrived, m.jobs_arrived());
  EXPECT_EQ(s.jobs_completed, m.jobs_completed());
  EXPECT_EQ(s.jobs_succeeded, m.jobs_succeeded());
  EXPECT_EQ(s.polls, m.polls());
  EXPECT_EQ(s.transfers, m.transfers());
  EXPECT_EQ(s.updates_received, m.updates_received());
}

TEST(MetricsCollector, MergeEqualsSerialAccumulation) {
  // Two shards fed disjoint halves of a job stream, merged in shard
  // order, must match the collector that saw the whole stream serially.
  MetricsCollector serial;
  MetricsCollector shard_a;
  MetricsCollector shard_b;

  const auto feed_first = [](MetricsCollector& m) {
    m.record_arrival(job_with(100.0, 0.0, 3.0));
    m.record_completion(job_with(100.0, 10.0, 2.0), 29.0, 10.0, 0.5);
    m.count_poll();
    m.count_update_received();
  };
  const auto feed_second = [](MetricsCollector& m) {
    m.record_arrival(job_with(900.0, 1.0, 3.0));
    m.record_completion(job_with(100.0, 10.0, 2.0), 31.0, 10.0, 0.25);
    m.record_unfinished(7.5);
    m.count_poll();
    m.count_transfer();
    m.count_auction();
  };
  feed_first(serial);
  feed_second(serial);
  feed_first(shard_a);
  feed_second(shard_b);

  MetricsCollector merged;
  merged.merge(shard_a);
  merged.merge(shard_b);

  const MetricsSnapshot want = serial.snapshot();
  const MetricsSnapshot got = merged.snapshot();
  EXPECT_DOUBLE_EQ(got.useful_work, want.useful_work);
  EXPECT_DOUBLE_EQ(got.wasted_work, want.wasted_work);
  EXPECT_DOUBLE_EQ(got.control_overhead, want.control_overhead);
  EXPECT_EQ(got.jobs_arrived, want.jobs_arrived);
  EXPECT_EQ(got.jobs_local, want.jobs_local);
  EXPECT_EQ(got.jobs_remote, want.jobs_remote);
  EXPECT_EQ(got.jobs_completed, want.jobs_completed);
  EXPECT_EQ(got.jobs_succeeded, want.jobs_succeeded);
  EXPECT_EQ(got.jobs_missed_deadline, want.jobs_missed_deadline);
  EXPECT_EQ(got.jobs_unfinished, want.jobs_unfinished);
  EXPECT_EQ(got.polls, want.polls);
  EXPECT_EQ(got.transfers, want.transfers);
  EXPECT_EQ(got.auctions, want.auctions);
  EXPECT_EQ(got.updates_received, want.updates_received);

  // Response samples append in merge order == serial arrival order.
  ASSERT_EQ(merged.response_times().count(), serial.response_times().count());
  const auto& mv = merged.response_times().values();
  const auto& sv = serial.response_times().values();
  for (std::size_t i = 0; i < sv.size(); ++i) {
    EXPECT_DOUBLE_EQ(mv[i], sv[i]);
  }
}

TEST(MetricsCollector, MergeDoesNotTouchJobLogs) {
  MetricsCollector a;
  a.sink().log().set_enabled(true);
  a.record_job_event(1, JobEvent::kArrival, 0.0);
  MetricsCollector b;
  b.sink().log().set_enabled(true);
  b.record_job_event(2, JobEvent::kArrival, 0.5);
  b.count_poll();
  a.merge(b);
  ASSERT_EQ(a.sink().log().size(), 1u);
  EXPECT_EQ(a.sink().log().records()[0].job, 1u);
  EXPECT_EQ(a.polls(), 1u);
}

TEST(MetricsCollector, ResetClearsEverythingButKeepsJobLog) {
  MetricsCollector m;
  m.sink().log().set_enabled(true);
  m.record_arrival(job_with(100.0, 0.0, 3.0));
  m.record_completion(job_with(100.0, 10.0, 2.0), 29.0, 10.0, 0.5);
  m.count_poll();
  m.count_auction();
  const std::size_t logged = m.sink().log().size();
  ASSERT_GT(logged, 0u);

  m.reset();
  const MetricsSnapshot s = m.snapshot();
  EXPECT_DOUBLE_EQ(s.useful_work, 0.0);
  EXPECT_DOUBLE_EQ(s.control_overhead, 0.0);
  EXPECT_EQ(s.jobs_arrived, 0u);
  EXPECT_EQ(s.polls, 0u);
  EXPECT_EQ(s.auctions, 0u);
  EXPECT_EQ(m.response_times().count(), 0u);
  // The sink's log survives a reset (its owner clears it).
  EXPECT_EQ(m.sink().log().size(), logged);
}

}  // namespace
}  // namespace scal::grid
