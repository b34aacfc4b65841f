#pragma once
// Collection of the quantities the scalability framework consumes:
//   F(k) — useful work: resource service time of jobs that completed
//          within their benefit deadline U_b,
//   G(k) — RMS overhead: work offered to scheduler/estimator/middleware
//          servers (equals their busy time whenever the RMS keeps up;
//          exceeds it exactly when the RMS is the bottleneck),
//   H(k) — RP overhead: job-control costs plus service time wasted on
//          jobs that missed their deadline or were cut off at the horizon,
// plus the secondary measures of Figures 6 and 7 (throughput, response
// time) and protocol-level counters for tests and diagnostics.

#include <cstddef>
#include <cstdint>

#include "grid/joblog.hpp"
#include "grid/result_sink.hpp"
#include "sim/time.hpp"
#include "util/stats.hpp"
#include "workload/job.hpp"
#include "workload/trace.hpp"

namespace scal::obs {
class Telemetry;
class Histogram;
}

namespace scal::grid {

/// Value snapshot of every MetricsCollector counter, so probes and
/// exporters can read a consistent mid-run view without reaching into
/// the collector's internals.
struct MetricsSnapshot {
  double useful_work = 0.0;
  double wasted_work = 0.0;
  double control_overhead = 0.0;
  std::uint64_t jobs_arrived = 0;
  std::uint64_t jobs_local = 0;
  std::uint64_t jobs_remote = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_succeeded = 0;
  std::uint64_t jobs_missed_deadline = 0;
  std::uint64_t jobs_unfinished = 0;
  std::uint64_t polls = 0;
  std::uint64_t transfers = 0;
  std::uint64_t auctions = 0;
  std::uint64_t adverts = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t updates_suppressed = 0;
  // Fault subsystem (all zero on a fault-free run).
  std::uint64_t jobs_killed = 0;
  std::uint64_t jobs_requeued = 0;
  std::uint64_t jobs_lost = 0;
  std::uint64_t round_retries = 0;
  std::uint64_t status_evictions = 0;
  std::uint64_t blackout_drops = 0;
};

class MetricsCollector {
 public:
  MetricsCollector() = default;
  // The default sink is embedded (sink_ points into *this), so copies
  // and moves would alias the wrong sink; the collector is shared by
  // reference everywhere anyway.
  MetricsCollector(const MetricsCollector&) = delete;
  MetricsCollector& operator=(const MetricsCollector&) = delete;

  /// Attach the result sink (GridConfig::result_mode selects the
  /// implementation).  Non-owning; null restores the embedded full
  /// sink.  A standalone collector (tests, per-task shards) works
  /// without ever attaching one.
  void attach_sink(ResultSink* sink) noexcept {
    sink_ = sink != nullptr ? sink : &default_sink_;
  }
  ResultSink& sink() noexcept { return *sink_; }
  const ResultSink& sink() const noexcept { return *sink_; }

  /// Record one job-lifecycle event into the sink's log.  The single
  /// mutation path into the log — components call this instead of
  /// writing the log directly, so the sink can bound the storage.
  void record_job_event(workload::JobId job, JobEvent event, sim::Time at,
                        std::uint32_t place = 0) {
    sink_->log().record(job, event, at, place);
  }

  /// Attach (optional) distribution probes; any pointer may be null.
  /// wait/response/slowdown fold online at record_completion; queue
  /// depth and staleness are fed by the scheduler via the observe_*
  /// hooks below.  Purely observational: attaching probes changes no
  /// simulated behavior.
  void attach_probes(obs::Histogram* wait, obs::Histogram* response,
                     obs::Histogram* slowdown, obs::Histogram* queue_depth,
                     obs::Histogram* staleness) noexcept {
    wait_hist_ = wait;
    response_hist_ = response;
    slowdown_hist_ = slowdown;
    queue_depth_hist_ = queue_depth;
    staleness_hist_ = staleness;
  }
  /// Scheduler queue length observed at a scheduling decision point.
  void observe_decision_queue(std::size_t depth);
  /// Sim-time age of the status snapshot a dispatch decision used.
  void observe_staleness(double age);
  void record_arrival(const workload::Job& job);
  /// `service_time` is the time the resource actually spent (exec/rate).
  void record_completion(const workload::Job& job, sim::Time completion,
                         double service_time, double control_cost);
  /// Service time already spent on a job still running at the horizon.
  void record_unfinished(double partial_service_time);
  /// A resource crash killed this job; any service time already invested
  /// is wasted (charged to H) exactly like a horizon cutoff.
  void record_job_killed(double partial_service_time);

  // Protocol counters (incremented by the RMS implementations).
  void count_poll() { ++polls_; }
  void count_transfer() { ++transfers_; }
  void count_auction() { ++auctions_; }
  void count_advert() { ++adverts_; }
  void count_update_received() { ++updates_received_; }
  void count_update_suppressed() { ++updates_suppressed_; }

  // Fault/robustness counters (see docs/FAULTS.md).
  void count_job_requeued() { ++requeued_; }
  void count_job_lost() { ++lost_; }
  void count_round_retry() { ++round_retries_; }
  void count_status_evictions(std::uint64_t n) { status_evictions_ += n; }
  void count_blackout_drop() { ++blackout_drops_; }

  // Accessors (F/H here exclude G, which GridSystem reads off servers).
  double useful_work() const noexcept { return useful_work_; }
  double wasted_work() const noexcept { return wasted_work_; }
  double control_overhead() const noexcept { return control_overhead_; }

  std::uint64_t jobs_arrived() const noexcept { return arrived_; }
  std::uint64_t jobs_local() const noexcept { return local_; }
  std::uint64_t jobs_remote() const noexcept { return remote_; }
  std::uint64_t jobs_completed() const noexcept { return completed_; }
  std::uint64_t jobs_succeeded() const noexcept { return succeeded_; }
  std::uint64_t jobs_missed_deadline() const noexcept { return missed_; }
  std::uint64_t jobs_unfinished() const noexcept { return unfinished_; }

  std::uint64_t polls() const noexcept { return polls_; }
  std::uint64_t transfers() const noexcept { return transfers_; }
  std::uint64_t auctions() const noexcept { return auctions_; }
  std::uint64_t adverts() const noexcept { return adverts_; }
  std::uint64_t updates_received() const noexcept { return updates_received_; }
  std::uint64_t updates_suppressed() const noexcept {
    return updates_suppressed_;
  }
  std::uint64_t jobs_killed() const noexcept { return killed_; }
  std::uint64_t jobs_requeued() const noexcept { return requeued_; }
  std::uint64_t jobs_lost() const noexcept { return lost_; }
  std::uint64_t round_retries() const noexcept { return round_retries_; }
  std::uint64_t status_evictions() const noexcept { return status_evictions_; }
  std::uint64_t blackout_drops() const noexcept { return blackout_drops_; }

  /// The exact response-time samples (full mode only; throws
  /// std::logic_error when the attached sink folds online — use
  /// response_mean()/response_p95() there).
  const util::Samples& response_times() const;
  std::uint64_t response_count() const noexcept {
    return sink_->response_count();
  }
  /// Mean response time — bitwise identical across sink modes (both
  /// fold a 0.0-seeded sum in completion order).
  double response_mean() const { return sink_->response_mean(); }
  /// 95th-percentile response: exact in full mode, HDR-histogram
  /// approximate in streaming mode.
  double response_p95() const { return sink_->response_p95(); }

  /// Consistent value copy of all counters (valid mid-run).
  MetricsSnapshot snapshot() const noexcept;

  /// Fold another collector's counts into this one: sums every counter
  /// and appends the response samples in `other`'s order.  Merging
  /// per-task collectors in task order equals accumulating serially —
  /// the deterministic reduction for sharded/parallel collection.  The
  /// attached job logs are not merged.
  void merge(const MetricsCollector& other);

  /// Zero every counter and drop the response samples; the attached job
  /// log (if any) is left untouched.
  void reset();

 private:
  double useful_work_ = 0.0;
  double wasted_work_ = 0.0;
  double control_overhead_ = 0.0;
  std::uint64_t arrived_ = 0, local_ = 0, remote_ = 0;
  std::uint64_t completed_ = 0, succeeded_ = 0, missed_ = 0, unfinished_ = 0;
  std::uint64_t polls_ = 0, transfers_ = 0, auctions_ = 0, adverts_ = 0;
  std::uint64_t updates_received_ = 0, updates_suppressed_ = 0;
  std::uint64_t killed_ = 0, requeued_ = 0, lost_ = 0;
  std::uint64_t round_retries_ = 0, status_evictions_ = 0, blackout_drops_ = 0;
  FullResultSink default_sink_;
  ResultSink* sink_ = &default_sink_;
  obs::Histogram* wait_hist_ = nullptr;
  obs::Histogram* response_hist_ = nullptr;
  obs::Histogram* slowdown_hist_ = nullptr;
  obs::Histogram* queue_depth_hist_ = nullptr;
  obs::Histogram* staleness_hist_ = nullptr;
};

/// Final outcome of one simulation run.
struct SimulationResult {
  // The paper's three work terms.
  double F = 0.0;
  double G_scheduler = 0.0;
  double G_estimator = 0.0;
  double G_middleware = 0.0;
  /// Control-plane aggregation-tree work (0 when the control plane is
  /// off or bypassed; docs/CONTROL_PLANE.md).  Charged to G like every
  /// other RMS server: the tree must pay for itself in coalesced
  /// est/sched work, not hide its own cost.
  double G_aggregator = 0.0;
  double H_control = 0.0;
  double H_wasted = 0.0;

  double G() const noexcept {
    return G_scheduler + G_estimator + G_middleware + G_aggregator;
  }

  /// Bottleneck isolation (the paper's motivation for component-level
  /// scalability analysis): the largest single scheduler's share of
  /// G_scheduler.  1.0 for CENTRAL by construction; ~1/#clusters for a
  /// well-balanced distributed RMS; rising values pinpoint an emerging
  /// manager hot spot.
  double G_scheduler_max_share = 0.0;
  /// The busiest scheduler's own work-in-system time.
  double G_scheduler_max = 0.0;
  double H() const noexcept { return H_control + H_wasted; }
  /// E = F / (F + G + H); 0 when no work was done.
  double efficiency() const noexcept {
    const double total = F + G() + H();
    return total > 0.0 ? F / total : 0.0;
  }

  // Figure 6/7 measures.
  double throughput = 0.0;  ///< jobs completed per unit time
  double mean_response = 0.0;
  double p95_response = 0.0;

  // Bookkeeping.
  std::uint64_t jobs_arrived = 0;
  std::uint64_t jobs_local = 0;
  std::uint64_t jobs_remote = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t jobs_succeeded = 0;
  std::uint64_t jobs_missed_deadline = 0;
  std::uint64_t jobs_unfinished = 0;
  std::uint64_t polls = 0;
  std::uint64_t transfers = 0;
  std::uint64_t auctions = 0;
  std::uint64_t adverts = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t updates_suppressed = 0;
  std::uint64_t network_messages = 0;
  std::uint64_t messages_dropped = 0;  ///< failure injection casualties
  std::uint64_t events_dispatched = 0;
  double horizon = 0.0;

  // Control-plane aggregation (all zero when off or bypassed).
  std::uint64_t ctrl_updates_in = 0;        ///< updates entering the trees
  std::uint64_t ctrl_updates_coalesced = 0; ///< absorbed before forwarding
  std::uint64_t ctrl_batches = 0;           ///< batches shipped tree-hops
  std::uint64_t ctrl_tree_depth = 0;        ///< deepest tree in the forest
  /// Fraction of tree traffic absorbed by coalescing (the G-reduction
  /// mechanism's direct readout).
  double ctrl_coalescing_ratio() const noexcept {
    return ctrl_updates_in > 0
               ? static_cast<double>(ctrl_updates_coalesced) /
                     static_cast<double>(ctrl_updates_in)
               : 0.0;
  }

  // Fault subsystem (zero / 1.0 on a fault-free run; see docs/FAULTS.md).
  std::uint64_t resource_crashes = 0;
  std::uint64_t resource_recoveries = 0;
  std::uint64_t jobs_killed = 0;    ///< in-flight jobs a crash destroyed
  std::uint64_t jobs_requeued = 0;  ///< killed jobs re-entering a scheduler
  std::uint64_t jobs_lost = 0;      ///< killed jobs past the requeue budget
  std::uint64_t round_retries = 0;  ///< protocol rounds retried on timeout
  std::uint64_t status_evictions = 0;  ///< stale views skipped in scans
  std::uint64_t blackout_drops = 0;    ///< control work lost to blackouts
  std::uint64_t aggregator_blackouts = 0;  ///< agg-blackout windows opened
  std::uint64_t messages_delayed = 0;
  std::uint64_t messages_duplicated = 0;
  double resource_downtime = 0.0;  ///< summed down-state resource-time
  /// Fraction of resource-time actually up: 1 - downtime / (R * horizon).
  double availability = 1.0;
  /// Availability-adjusted efficiency E_A = E / A: efficiency per unit of
  /// capacity that actually existed, so churn runs compare to fault-free
  /// runs on equal footing (can exceed E when the RMS exploits the
  /// surviving capacity well).
  double efficiency_avail() const noexcept {
    return availability > 0.0 ? efficiency() / availability : 0.0;
  }

  // Workload provenance (src/workload source subsystem): summary stats
  // of the arrival stream the run consumed, and whether the process-wide
  // ArrivalCache already held it (docs/WORKLOADS.md).
  workload::TraceStats workload_stats;
  bool workload_from_cache = false;

  // Memory tier (docs/PERFORMANCE.md): which result path the run used
  // and what its bounded stores did.  All defaults on a full-mode run
  // with the job log off — the common case stays indistinguishable from
  // the pre-streaming seed.
  ResultMode result_mode = ResultMode::kFull;
  std::uint64_t job_log_records = 0;  ///< lifecycle records kept
  std::uint64_t job_log_dropped = 0;  ///< records past the capacity bound
  std::uint64_t arena_high_water = 0;  ///< peak in-flight arrival slots
  std::uint64_t arena_reuses = 0;      ///< arrival slot recycles

  /// The telemetry handle the run was instrumented with (null when
  /// telemetry was off); points at the object the caller attached to
  /// GridConfig::telemetry, so `result.telemetry->export_all()` works
  /// even through facades like Scenario::run.
  obs::Telemetry* telemetry = nullptr;
};

}  // namespace scal::grid
