// The streaming tier's bit-identity contract: a run with
// result_mode = streaming pulls its arrivals through JobStream into
// recycled arena slots and folds results online, yet every figure-facing
// number — F, G, H, the job counters, the protocol counters, the mean
// response, the workload stats — is EXACTLY the number the materialized
// full-mode run produces, for every RMS kind, with faults on, and at any
// worker-pool width.  Only the p95 differs by design (histogram
// estimate); the tests pin everything else with operator==.

#include <gtest/gtest.h>

#include <iomanip>
#include <iostream>
#include <string>

#include "core/procedure.hpp"
#include "exec/thread_pool.hpp"
#include "grid/digest.hpp"
#include "grid/sampler.hpp"
#include "grid/system.hpp"
#include "rms/scenario.hpp"
#include "util/rng.hpp"
#include "workload/arrival_cache.hpp"

namespace scal {
namespace {

grid::GridConfig config_for(grid::RmsKind kind, grid::ResultMode mode,
                            std::uint64_t seed = 42) {
  grid::GridConfig config;
  config.rms = kind;
  config.topology.nodes = 120;
  config.horizon = 400.0;
  config.workload.mean_interarrival = 1.0;
  config.seed = seed;
  config.result_mode = mode;
  return config;
}

void expect_identical_but_p95(const grid::SimulationResult& full,
                              const grid::SimulationResult& streaming,
                              const std::string& label) {
  // The paper's work terms, bit for bit.
  EXPECT_EQ(full.F, streaming.F) << label;
  EXPECT_EQ(full.G_scheduler, streaming.G_scheduler) << label;
  EXPECT_EQ(full.G_estimator, streaming.G_estimator) << label;
  EXPECT_EQ(full.G_middleware, streaming.G_middleware) << label;
  EXPECT_EQ(full.G_aggregator, streaming.G_aggregator) << label;
  EXPECT_EQ(full.H_control, streaming.H_control) << label;
  EXPECT_EQ(full.H_wasted, streaming.H_wasted) << label;
  // Job accounting.
  EXPECT_EQ(full.jobs_arrived, streaming.jobs_arrived) << label;
  EXPECT_EQ(full.jobs_local, streaming.jobs_local) << label;
  EXPECT_EQ(full.jobs_remote, streaming.jobs_remote) << label;
  EXPECT_EQ(full.jobs_completed, streaming.jobs_completed) << label;
  EXPECT_EQ(full.jobs_succeeded, streaming.jobs_succeeded) << label;
  EXPECT_EQ(full.jobs_missed_deadline, streaming.jobs_missed_deadline)
      << label;
  EXPECT_EQ(full.jobs_unfinished, streaming.jobs_unfinished) << label;
  // Protocol and fabric counters.
  EXPECT_EQ(full.polls, streaming.polls) << label;
  EXPECT_EQ(full.transfers, streaming.transfers) << label;
  EXPECT_EQ(full.auctions, streaming.auctions) << label;
  EXPECT_EQ(full.adverts, streaming.adverts) << label;
  EXPECT_EQ(full.updates_received, streaming.updates_received) << label;
  EXPECT_EQ(full.updates_suppressed, streaming.updates_suppressed) << label;
  EXPECT_EQ(full.network_messages, streaming.network_messages) << label;
  EXPECT_EQ(full.events_dispatched, streaming.events_dispatched) << label;
  // Secondary measures: the mean folds identically in both modes.
  EXPECT_EQ(full.throughput, streaming.throughput) << label;
  EXPECT_EQ(full.mean_response, streaming.mean_response) << label;
  // Fault subsystem.
  EXPECT_EQ(full.jobs_killed, streaming.jobs_killed) << label;
  EXPECT_EQ(full.jobs_requeued, streaming.jobs_requeued) << label;
  EXPECT_EQ(full.jobs_lost, streaming.jobs_lost) << label;
  EXPECT_EQ(full.resource_crashes, streaming.resource_crashes) << label;
  EXPECT_EQ(full.resource_downtime, streaming.resource_downtime) << label;
  // Workload provenance: the streaming fold replaces summarize().
  EXPECT_EQ(full.workload_stats.jobs, streaming.workload_stats.jobs) << label;
  EXPECT_EQ(full.workload_stats.mean_interarrival,
            streaming.workload_stats.mean_interarrival)
      << label;
  EXPECT_EQ(full.workload_stats.mean_exec_time,
            streaming.workload_stats.mean_exec_time)
      << label;
  EXPECT_EQ(full.workload_stats.total_demand,
            streaming.workload_stats.total_demand)
      << label;
  EXPECT_EQ(full.workload_stats.span, streaming.workload_stats.span) << label;
}

class StreamingIdentityTest : public ::testing::TestWithParam<grid::RmsKind> {
};

TEST_P(StreamingIdentityTest, MatchesFullModeBitForBit) {
  workload::ArrivalCache::instance().clear();
  const auto full =
      Scenario(config_for(GetParam(), grid::ResultMode::kFull)).run();
  const auto streaming =
      Scenario(config_for(GetParam(), grid::ResultMode::kStreaming)).run();
  expect_identical_but_p95(full, streaming, grid::to_string(GetParam()));
  EXPECT_EQ(full.result_mode, grid::ResultMode::kFull);
  EXPECT_EQ(streaming.result_mode, grid::ResultMode::kStreaming);
  // The chained arrival path keeps exactly one pending slot in flight
  // and recycles it once per job.
  EXPECT_EQ(streaming.arena_high_water, 1u);
  EXPECT_EQ(streaming.arena_reuses, streaming.jobs_arrived);
  // The approximate p95 still has to land near the exact one (the
  // histogram's relative error bound is one sub-bucket, 12.5%).
  EXPECT_NEAR(streaming.p95_response, full.p95_response,
              0.13 * full.p95_response + 1e-9)
      << grid::to_string(GetParam());
}

TEST_P(StreamingIdentityTest, MatchesFullModeUnderFaults) {
  workload::ArrivalCache::instance().clear();
  grid::GridConfig full_config =
      config_for(GetParam(), grid::ResultMode::kFull, 7);
  full_config.faults =
      fault::FaultPlan::parse("churn:mtbf=120,mttr=15;net:drop=0.02");
  grid::GridConfig streaming_config = full_config;
  streaming_config.result_mode = grid::ResultMode::kStreaming;
  const auto full = Scenario(full_config).run();
  const auto streaming = Scenario(streaming_config).run();
  EXPECT_GT(full.resource_crashes, 0u) << grid::to_string(GetParam());
  expect_identical_but_p95(full, streaming, grid::to_string(GetParam()));
}

// Every kind, including the extension policies — the paper's seven
// plus HIER and RANDOM.
constexpr grid::RmsKind kEveryRmsKind[] = {
    grid::RmsKind::kCentral,          grid::RmsKind::kLowest,
    grid::RmsKind::kReserve,          grid::RmsKind::kAuction,
    grid::RmsKind::kSenderInitiated,  grid::RmsKind::kReceiverInitiated,
    grid::RmsKind::kSymmetric,        grid::RmsKind::kHierarchical,
    grid::RmsKind::kRandom,
};

INSTANTIATE_TEST_SUITE_P(AllKinds, StreamingIdentityTest,
                         ::testing::ValuesIn(kEveryRmsKind),
                         [](const auto& info) {
                           std::string name = grid::to_string(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

// Tie order: an SWF log at scale 1 has integer submit times, so arrivals
// tie with each other, with the sampler's cadence and with churn events.
// The queue breaks timestamp ties by insertion order, so any change to
// when arrival events are enqueued moves this FNV-1a digest of F/G/H,
// the event count and every state sample.
std::uint64_t tie_digest(grid::RmsKind kind, grid::ResultMode mode,
                         std::uint64_t* arena_high_water = nullptr) {
  grid::GridConfig config;
  config.rms = kind;
  config.topology.nodes = 120;
  config.horizon = 4000.0;
  config.seed = 11;
  config.sample_interval = 1.0;
  config.result_mode = mode;
  auto system =
      Scenario(config)
          .workload("swf:" SCAL_SOURCE_DIR "/tests/data/sample_small.swf@1")
          .faults("churn:mtbf=600,mttr=40")
          .build();
  const grid::SimulationResult r = system->run();
  if (arena_high_water != nullptr) *arena_high_water = r.arena_high_water;
  std::string bytes;
  auto put = [&bytes](auto v) {
    bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
  };
  put(r.F);
  put(r.G());
  put(r.H());
  put(r.events_dispatched);
  for (const grid::StateSample& s : system->sampler()->samples()) {
    put(s.at);
    put(s.pool_busy_fraction);
    put(s.mean_resource_load);
    put(s.max_resource_load);
    put(s.scheduler_backlog);
    put(s.middleware_backlog);
    put(s.hottest_cluster_busy);
  }
  return util::fnv1a(bytes);
}

// Pinned per kind, in kEveryRmsKind order; both result modes must
// reproduce them.  Refresh after an intentional change with
//   build/tests/grid_test --gtest_filter='TieOrder.Print*'
constexpr std::uint64_t kTieDigests[] = {
    0xa9a1fda1bfec302dull, 0x19b27c72038c30b9ull, 0x09bad476dc07aed9ull,
    0x2515db10a5f52e9cull, 0xa0b28379bb99554aull, 0x06aaa6157735d2c3ull,
    0x65f907980ff77f7dull, 0x673edc62457d9e3cull, 0xb3058188fd944d11ull,
};

TEST(TieOrder, PrintCurrentDigests) {
  for (const grid::RmsKind kind : kEveryRmsKind) {
    std::cout << "0x" << std::hex << std::setw(16) << std::setfill('0')
              << tie_digest(kind, grid::ResultMode::kFull) << "ull,  // "
              << grid::to_string(kind) << std::dec << "\n";
  }
}

TEST(TieOrder, BothResultModesMatchThePinnedDigests) {
  for (std::size_t i = 0; i < std::size(kEveryRmsKind); ++i) {
    const std::string kind = grid::to_string(kEveryRmsKind[i]);
    std::uint64_t high_water = 0;
    EXPECT_EQ(tie_digest(kEveryRmsKind[i], grid::ResultMode::kFull,
                         &high_water),
              kTieDigests[i])
        << kind;
    // Full mode pulls through the same single chained arrival slot.
    EXPECT_EQ(high_water, 1u) << kind;
    EXPECT_EQ(tie_digest(kEveryRmsKind[i], grid::ResultMode::kStreaming),
              kTieDigests[i])
        << kind;
  }
}

TEST(StreamingJobLog, RecordsTheIdenticalLifecycleStream) {
  workload::ArrivalCache::instance().clear();
  grid::GridConfig config =
      config_for(grid::RmsKind::kLowest, grid::ResultMode::kFull);
  config.job_log = true;
  const auto full_system = Scenario(config).build();
  full_system->run();
  config.result_mode = grid::ResultMode::kStreaming;
  const auto streaming_system = Scenario(config).build();
  streaming_system->run();

  const grid::JobLog& a = full_system->job_log();
  const grid::JobLog& b = streaming_system->job_log();
  ASSERT_GT(a.size(), 0u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i].job, b.records()[i].job);
    EXPECT_EQ(a.records()[i].event, b.records()[i].event);
    EXPECT_EQ(a.records()[i].at, b.records()[i].at);
    EXPECT_EQ(a.records()[i].place, b.records()[i].place);
  }
}

TEST(StreamingJobLog, CapacityBoundsTheLogAndCountsDrops) {
  workload::ArrivalCache::instance().clear();
  grid::GridConfig config =
      config_for(grid::RmsKind::kLowest, grid::ResultMode::kStreaming);
  config.job_log = true;
  config.job_log_capacity = 50;
  const auto result = Scenario(config).run();
  EXPECT_EQ(result.job_log_records, 50u);
  EXPECT_GT(result.job_log_dropped, 0u);

  // Unbounded control: the same run keeps everything.
  config.job_log_capacity = 0;
  const auto unbounded = Scenario(config).run();
  EXPECT_EQ(unbounded.job_log_dropped, 0u);
  EXPECT_EQ(unbounded.job_log_records,
            result.job_log_records + result.job_log_dropped);
}

TEST(StreamingDigest, ResultModeIsStructural) {
  // Flipping the result mode swaps the sink implementation — a
  // structural change (session pools must rebuild, not reset) — while
  // the workload digest is unchanged: both modes share one ArrivalCache
  // entry.
  const grid::GridConfig full =
      config_for(grid::RmsKind::kLowest, grid::ResultMode::kFull);
  const grid::GridConfig streaming =
      config_for(grid::RmsKind::kLowest, grid::ResultMode::kStreaming);
  EXPECT_NE(grid::config_digest(full), grid::config_digest(streaming));
  EXPECT_EQ(grid::workload_digest(full), grid::workload_digest(streaming));
}

TEST(StreamingParallel, PoolLanesBitIdenticalToSerial) {
  workload::ArrivalCache::instance().clear();
  grid::GridConfig base =
      config_for(grid::RmsKind::kLowest, grid::ResultMode::kStreaming, 5);
  base.horizon = 200.0;
  core::ProcedureConfig procedure;
  procedure.scase = core::ScalingCase::case1_network_size();
  procedure.scale_factors = {1, 2};
  procedure.tuner.evaluations = 3;
  procedure.tuner.e0 = 0.8;
  procedure.tuner.band = 0.1;
  procedure.warm_evaluations = 2;

  const core::CaseResult serial = core::measure_scalability(
      base, grid::RmsKind::kLowest, procedure);
  exec::ThreadPool pool(3);
  procedure.pool = &pool;
  const core::CaseResult parallel = core::measure_scalability(
      base, grid::RmsKind::kLowest, procedure);

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].sim.F, parallel.points[i].sim.F);
    EXPECT_EQ(serial.points[i].sim.G(), parallel.points[i].sim.G());
    EXPECT_EQ(serial.points[i].sim.mean_response,
              parallel.points[i].sim.mean_response);
    EXPECT_EQ(serial.points[i].sim.jobs_arrived,
              parallel.points[i].sim.jobs_arrived);
  }
}

TEST(StreamingReset, ReusedSystemStaysBitIdentical) {
  // The session-pool path: reset(next) + run() must equal a fresh build,
  // in streaming mode too (the arena and stream state rewind cleanly).
  workload::ArrivalCache::instance().clear();
  grid::GridConfig config =
      config_for(grid::RmsKind::kLowest, grid::ResultMode::kStreaming);
  auto system = Scenario(config).build();
  const auto first = system->run();
  system->reset(config);
  const auto again = system->run();
  expect_identical_but_p95(first, again, "reset-reuse");
  EXPECT_EQ(first.p95_response, again.p95_response);
}

}  // namespace
}  // namespace scal
