#include "workload/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace scal::workload {

void TraceStatsAccumulator::add(const Job& job) {
  if (jobs_ == 0) {
    first_arrival_ = job.arrival;
    prev_arrival_ = job.arrival;
  }
  ++jobs_;
  if (job.job_class == JobClass::kLocal) ++local_;
  else ++remote_;
  exec_sum_ += job.exec_time;
  max_exec_ = std::max(max_exec_, job.exec_time);
  demand_sum_ += job.exec_time;
  interarrival_sum_ += job.arrival - prev_arrival_;
  prev_arrival_ = job.arrival;
}

TraceStats TraceStatsAccumulator::stats() const {
  TraceStats s;
  s.jobs = jobs_;
  if (jobs_ == 0) return s;
  s.local_jobs = local_;
  s.remote_jobs = remote_;
  s.mean_exec_time = exec_sum_ / static_cast<double>(jobs_);
  s.max_exec_time = max_exec_;
  s.total_demand = demand_sum_;
  if (jobs_ > 1) {
    s.mean_interarrival =
        interarrival_sum_ / static_cast<double>(jobs_ - 1);
  }
  s.span = prev_arrival_ - first_arrival_;
  return s;
}

TraceStats summarize(const std::vector<Job>& jobs) {
  TraceStatsAccumulator acc;
  for (const Job& j : jobs) acc.add(j);
  return acc.stats();
}

namespace {
constexpr const char* kHeader =
    "id,arrival,exec_time,requested_time,partition_size,cancellable,"
    "job_class,benefit_factor,benefit_deadline,origin_cluster";
}

void save_trace(const std::vector<Job>& jobs, std::ostream& out) {
  out << kHeader << '\n';
  out << std::setprecision(17);
  for (const Job& j : jobs) {
    out << j.id << ',' << j.arrival << ',' << j.exec_time << ','
        << j.requested_time << ',' << j.partition_size << ','
        << (j.cancellable ? 1 : 0) << ','
        << (j.job_class == JobClass::kLocal ? "LOCAL" : "REMOTE") << ','
        << j.benefit_factor << ',' << j.benefit_deadline << ','
        << j.origin_cluster << '\n';
  }
}

void save_trace_file(const std::vector<Job>& jobs, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_trace_file: cannot open " + path);
  save_trace(jobs, out);
}

TraceReader::TraceReader(std::istream& in) : in_(&in) {
  std::string line;
  if (!std::getline(*in_, line)) {
    in_ = nullptr;  // empty input: a valid, already-exhausted trace
    return;
  }
  if (line != kHeader) {
    throw std::runtime_error("load_trace: unexpected header: " + line);
  }
}

bool TraceReader::next(Job& out) {
  if (in_ == nullptr) return false;
  std::string line;
  while (std::getline(*in_, line)) {
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string cell;
    Job j;
    auto next_cell = [&]() {
      if (!std::getline(row, cell, ',')) {
        throw std::runtime_error("load_trace: truncated row: " + line);
      }
      return cell;
    };
    // strtod + isfinite rather than stod: stod accepts "nan"/"inf" and
    // throws a bare "stod" on overflow.
    auto next_real = [&]() {
      next_cell();
      char* end = nullptr;
      const double v = std::strtod(cell.c_str(), &end);
      if (end == cell.c_str() || *end != '\0' || !std::isfinite(v)) {
        throw std::runtime_error("load_trace: bad number '" + cell +
                                 "' in row: " + line);
      }
      return v;
    };
    j.id = std::stoull(next_cell());
    j.arrival = next_real();
    j.exec_time = next_real();
    j.requested_time = next_real();
    j.partition_size = static_cast<std::uint32_t>(std::stoul(next_cell()));
    j.cancellable = next_cell() == "1";
    const std::string cls = next_cell();
    if (cls != "LOCAL" && cls != "REMOTE") {
      throw std::runtime_error("load_trace: bad job class: " + cls);
    }
    j.job_class = cls == "LOCAL" ? JobClass::kLocal : JobClass::kRemote;
    j.benefit_factor = next_real();
    j.benefit_deadline = next_real();
    j.origin_cluster = static_cast<std::uint32_t>(std::stoul(next_cell()));
    out = j;
    return true;
  }
  return false;
}

std::vector<Job> load_trace(std::istream& in) {
  std::vector<Job> jobs;
  TraceReader reader(in);
  Job job;
  while (reader.next(job)) jobs.push_back(job);
  return jobs;
}

std::vector<Job> load_trace_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_trace_file: cannot open " + path);
  return load_trace(in);
}

}  // namespace scal::workload
