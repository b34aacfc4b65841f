#include "workload/trace.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "workload/generator.hpp"

namespace scal::workload {
namespace {

std::vector<Job> sample_jobs(std::size_t n) {
  WorkloadConfig config;
  config.mean_interarrival = 3.0;
  config.clusters = 5;
  WorkloadGenerator gen(config, util::RandomStream(42, "trace"));
  return gen.generate_until(1e12, n);
}

TEST(Trace, RoundTripPreservesEveryField) {
  const auto jobs = sample_jobs(200);
  std::stringstream buffer;
  save_trace(jobs, buffer);
  const auto loaded = load_trace(buffer);
  ASSERT_EQ(loaded.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(loaded[i].id, jobs[i].id);
    EXPECT_DOUBLE_EQ(loaded[i].arrival, jobs[i].arrival);
    EXPECT_DOUBLE_EQ(loaded[i].exec_time, jobs[i].exec_time);
    EXPECT_DOUBLE_EQ(loaded[i].requested_time, jobs[i].requested_time);
    EXPECT_EQ(loaded[i].partition_size, jobs[i].partition_size);
    EXPECT_EQ(loaded[i].cancellable, jobs[i].cancellable);
    EXPECT_EQ(loaded[i].job_class, jobs[i].job_class);
    EXPECT_DOUBLE_EQ(loaded[i].benefit_factor, jobs[i].benefit_factor);
    EXPECT_DOUBLE_EQ(loaded[i].benefit_deadline, jobs[i].benefit_deadline);
    EXPECT_EQ(loaded[i].origin_cluster, jobs[i].origin_cluster);
  }
}

TEST(Trace, FileRoundTrip) {
  const auto jobs = sample_jobs(20);
  const std::string path = ::testing::TempDir() + "/scal_trace_test.csv";
  save_trace_file(jobs, path);
  const auto loaded = load_trace_file(path);
  EXPECT_EQ(loaded.size(), jobs.size());
  std::remove(path.c_str());
}

TEST(Trace, EmptyTraceRoundTrips) {
  std::stringstream buffer;
  save_trace({}, buffer);
  EXPECT_TRUE(load_trace(buffer).empty());
}

TEST(Trace, RejectsBadHeader) {
  std::stringstream buffer("not,a,trace\n1,2,3\n");
  EXPECT_THROW(load_trace(buffer), std::runtime_error);
}

TEST(Trace, RejectsTruncatedRow) {
  std::stringstream buffer;
  save_trace(sample_jobs(1), buffer);
  std::string text = buffer.str();
  text = text.substr(0, text.rfind(',') - 2);  // chop the row's tail
  std::stringstream broken(text);
  EXPECT_THROW(load_trace(broken), std::runtime_error);
}

TEST(Trace, RejectsNonFiniteNumbers) {
  for (const char* bad : {"nan", "inf", "1e400", "x"}) {
    std::stringstream buffer;
    save_trace(sample_jobs(1), buffer);
    std::string text = buffer.str();
    // Replace the arrival cell (the row's second field).
    const std::size_t row = text.find('\n') + 1;
    const std::size_t a = text.find(',', row) + 1;
    const std::size_t b = text.find(',', a);
    text.replace(a, b - a, bad);
    std::stringstream broken(text);
    EXPECT_THROW(load_trace(broken), std::runtime_error) << bad;
  }
}

TEST(Trace, RejectsMissingFile) {
  EXPECT_THROW(load_trace_file("/nonexistent/nope.csv"),
               std::runtime_error);
}

TEST(TraceStats, SummarizesCorrectly) {
  std::vector<Job> jobs(3);
  jobs[0].arrival = 0.0;
  jobs[0].exec_time = 100.0;
  jobs[0].job_class = JobClass::kLocal;
  jobs[1].arrival = 10.0;
  jobs[1].exec_time = 900.0;
  jobs[1].job_class = JobClass::kRemote;
  jobs[2].arrival = 20.0;
  jobs[2].exec_time = 200.0;
  jobs[2].job_class = JobClass::kLocal;
  const TraceStats s = summarize(jobs);
  EXPECT_EQ(s.jobs, 3u);
  EXPECT_EQ(s.local_jobs, 2u);
  EXPECT_EQ(s.remote_jobs, 1u);
  EXPECT_DOUBLE_EQ(s.mean_interarrival, 10.0);
  EXPECT_DOUBLE_EQ(s.mean_exec_time, 400.0);
  EXPECT_DOUBLE_EQ(s.max_exec_time, 900.0);
  EXPECT_DOUBLE_EQ(s.total_demand, 1200.0);
  EXPECT_DOUBLE_EQ(s.span, 20.0);
}

TEST(TraceStats, EmptyIsAllZero) {
  const TraceStats s = summarize({});
  EXPECT_EQ(s.jobs, 0u);
  EXPECT_DOUBLE_EQ(s.total_demand, 0.0);
}

}  // namespace
}  // namespace scal::workload
