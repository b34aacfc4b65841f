#pragma once
// RunManifest: one structured record per simulation run — configuration,
// seed, code version, wall-clock timings, result scalars, the full
// protocol counter snapshot, and an annealing-search summary — appended
// as one JSON line to a .jsonl file.  A directory of manifests is a
// queryable lab notebook (jq-friendly) tying every result CSV/trace back
// to exactly what produced it.

#include <cstdint>
#include <string>

#include "obs/counters.hpp"

namespace scal::obs {

/// `git describe --always --dirty` at configure time ("unknown" outside
/// a git checkout).
std::string git_describe();

/// Current wall-clock time as UTC ISO-8601 ("2026-08-05T12:34:56Z").
std::string utc_timestamp();

struct RunManifest {
  // Identity.
  std::string label;          ///< caller-chosen run label
  std::string started_at;     ///< wall-clock UTC ISO-8601
  std::string git_version;    ///< git describe of the binary's source
  double wall_seconds = 0.0;  ///< wall-clock duration of the run
  std::uint64_t jobs = 1;     ///< worker lanes the campaign ran with

  // Configuration snapshot.
  std::string rms;
  std::uint64_t seed = 0;
  double horizon = 0.0;
  std::uint64_t nodes = 0;
  std::uint64_t clusters = 0;
  std::uint64_t estimators_per_cluster = 0;
  double service_rate = 0.0;
  double heterogeneity = 0.0;
  double update_interval = 0.0;
  std::uint64_t neighborhood_size = 0;
  double link_delay_scale = 0.0;
  double volunteer_interval = 0.0;
  double mean_interarrival = 0.0;

  // Result scalars.
  double F = 0.0;
  double G = 0.0;
  double H = 0.0;
  double efficiency = 0.0;
  double throughput = 0.0;
  double mean_response = 0.0;
  double p95_response = 0.0;
  double G_scheduler_max_share = 0.0;

  // Fault-injection summary (emitted only when fault_spec is non-empty).
  std::string fault_spec;        ///< FaultPlan::to_spec() of the run
  double availability = 1.0;     ///< 1 - downtime / (resources * horizon)
  double efficiency_avail = 0.0; ///< E divided by availability

  // Workload-source summary (emitted only when workload_source is
  // non-empty, i.e. the run declared a non-default source or modulator
  // chain, so default-synthetic manifests keep their exact byte
  // layout).  Cache fields are provenance: they depend on what else the
  // process ran before this record (volatile in tools/compare_runs.py).
  std::string workload_source;      ///< SourceSpec::summary() of the run
  std::uint64_t workload_jobs = 0;  ///< jobs in the arrival stream
  double workload_span = 0.0;       ///< last arrival - first arrival
  double workload_mean_interarrival = 0.0;
  double workload_mean_exec = 0.0;
  bool workload_from_cache = false;          ///< stream recalled, not built
  std::uint64_t arrival_cache_hits = 0;      ///< process-wide cache hits
  /// Byte-budget evictions + one-shot store skips (process-wide, so
  /// volatile like the hit counter); each emitted inside the workload
  /// block only when > 0, keeping pre-budget manifests byte-identical.
  std::uint64_t arrival_cache_evictions = 0;
  std::uint64_t arrival_cache_store_skips = 0;

  // Memory-tier summary (emitted as a "memory" block only when
  // result_mode is non-empty — i.e. the run used the streaming tier —
  // so full-mode manifests keep their exact byte layout).
  std::string result_mode;             ///< "streaming" when emitted
  std::uint64_t job_log_records = 0;   ///< lifecycle records kept
  std::uint64_t job_log_dropped = 0;   ///< records past the capacity bound
  std::uint64_t arena_high_water = 0;  ///< peak in-flight arrival slots
  std::uint64_t arena_reuses = 0;      ///< arrival slot recycles

  // Control-plane summary (emitted — and the agg_* tuning fields with
  // it — only when control_plane is set, so legacy manifests keep their
  // exact byte layout).
  bool control_plane = false;
  std::uint64_t agg_fanout = 1;
  std::uint64_t agg_batch = 1;
  double agg_flush = 0.0;
  double G_aggregator = 0.0;
  std::uint64_t ctrl_updates_in = 0;
  std::uint64_t ctrl_updates_coalesced = 0;
  std::uint64_t ctrl_batches = 0;
  std::uint64_t ctrl_tree_depth = 0;
  double ctrl_coalescing_ratio = 0.0;

  // Protocol / bookkeeping counters.
  CounterRegistry counters;

  // Annealing-search summary (zero when no tuning ran).
  std::uint64_t anneal_iterations = 0;
  std::uint64_t anneal_accepted = 0;
  std::uint64_t anneal_improving = 0;
  double anneal_best_objective = 0.0;

  // Tuner cost accounting (zero when no tuning ran): logical evaluations
  // the enabler searches requested and how many the evaluation cache
  // answered.  Emitted as a "tuner" block when evaluations > 0.
  std::uint64_t tuner_evaluations = 0;
  std::uint64_t tuner_cache_hits = 0;

  // Evaluation-reuse summary (emitted as a "reuse" block only when
  // reuse_enabled is set by the bench, so every pre-reuse manifest
  // keeps its exact byte layout).  All counts are process-wide and
  // scheduling-dependent — provenance, not results — and therefore
  // volatile in tools/compare_runs.py.
  bool reuse_enabled = false;
  std::uint64_t reuse_tree_shares = 0;     ///< router trees adopted
  std::uint64_t reuse_tree_publishes = 0;  ///< snapshots published
  std::uint64_t reuse_inflight_waits = 0;  ///< evals answered by a wait
  std::uint64_t reuse_disk_hits = 0;       ///< evals answered from disk
  std::uint64_t reuse_disk_entries = 0;    ///< entries preloaded from disk

  // Distribution metrics + phase profile, pre-rendered by Telemetry
  // (histograms/profiler JSON).  Emitted as a "metrics" block only when
  // non-empty, so manifests from metrics-off runs are byte-identical to
  // earlier formats.
  std::string metrics_json;

  // Peak resident set size of the process, stamped by benches just
  // before export (0 = not measured; emitted only when > 0).
  std::uint64_t peak_rss_bytes = 0;

  std::string to_json() const;

  /// Append this record as one line to `path` (creates the file).
  /// Returns false (and logs) on I/O failure.
  bool append_jsonl(const std::string& path) const;
};

}  // namespace scal::obs
