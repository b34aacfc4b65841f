#include "grid/telemetry.hpp"

#include <unordered_set>

#include "workload/arrival_cache.hpp"

namespace scal::grid {

void export_job_spans(const JobLog& log, obs::TraceRecorder& trace,
                      obs::TraceTid tid, double horizon) {
  std::unordered_set<workload::JobId> open;
  for (const JobLogRecord& rec : log.records()) {
    switch (rec.event) {
      case JobEvent::kArrival:
        trace.async_begin(tid, rec.job, "job", "job", rec.at);
        open.insert(rec.job);
        break;
      case JobEvent::kComplete:
        trace.async_end(tid, rec.job, "job", rec.at);
        open.erase(rec.job);
        break;
      case JobEvent::kTransfer:
      case JobEvent::kDispatch:
      case JobEvent::kStart:
      case JobEvent::kKilled:
        trace.async_instant(tid, rec.job, to_string(rec.event), "job",
                            rec.at);
        break;
    }
  }
  for (const workload::JobId job : open) {
    trace.async_end(tid, job, "job", horizon);
  }
}

void fill_manifest(obs::RunManifest& manifest, const GridConfig& config,
                   const SimulationResult& result) {
  manifest.rms = to_string(config.rms);
  manifest.seed = config.seed;
  manifest.horizon = config.horizon;
  manifest.nodes = config.topology.nodes;
  manifest.clusters = config.cluster_count();
  manifest.estimators_per_cluster = config.estimators_per_cluster;
  manifest.service_rate = config.service_rate;
  manifest.heterogeneity = config.heterogeneity;
  manifest.update_interval = config.tuning.update_interval;
  manifest.neighborhood_size = config.tuning.neighborhood_size;
  manifest.link_delay_scale = config.tuning.link_delay_scale;
  manifest.volunteer_interval = config.tuning.volunteer_interval;
  manifest.mean_interarrival = config.workload.mean_interarrival;

  manifest.F = result.F;
  manifest.G = result.G();
  manifest.H = result.H();
  manifest.efficiency = result.efficiency();
  manifest.throughput = result.throughput;
  manifest.mean_response = result.mean_response;
  manifest.p95_response = result.p95_response;
  manifest.G_scheduler_max_share = result.G_scheduler_max_share;

  // Workload block: only when a non-default source ran, keeping default
  // manifests byte-identical.
  if (!config.workload_source.is_default()) {
    manifest.workload_source = config.workload_source.summary();
    manifest.workload_jobs = result.workload_stats.jobs;
    manifest.workload_span = result.workload_stats.span;
    manifest.workload_mean_interarrival =
        result.workload_stats.mean_interarrival;
    manifest.workload_mean_exec = result.workload_stats.mean_exec_time;
    manifest.workload_from_cache = result.workload_from_cache;
    // Cache counters are process-wide, not per-run: read them from the
    // memo when the manifest is written.
    const workload::ArrivalCache& arrivals = workload::ArrivalCache::instance();
    manifest.arrival_cache_hits = arrivals.hits();
    manifest.arrival_cache_evictions = arrivals.evictions();
    manifest.arrival_cache_store_skips = arrivals.store_skips();
  }

  // Memory block: only when the streaming tier ran, keeping full-mode
  // manifests byte-identical.
  if (result.result_mode == ResultMode::kStreaming) {
    manifest.result_mode = to_string(result.result_mode);
    manifest.job_log_records = result.job_log_records;
    manifest.job_log_dropped = result.job_log_dropped;
    manifest.arena_high_water = result.arena_high_water;
    manifest.arena_reuses = result.arena_reuses;
  }

  // Control-plane block: only when the run had one, keeping legacy
  // manifests byte-identical.
  manifest.control_plane = config.control_plane;
  if (config.control_plane) {
    manifest.agg_fanout = config.tuning.agg_fanout;
    manifest.agg_batch = config.tuning.agg_batch;
    manifest.agg_flush = config.tuning.agg_flush;
    manifest.G_aggregator = result.G_aggregator;
    manifest.ctrl_updates_in = result.ctrl_updates_in;
    manifest.ctrl_updates_coalesced = result.ctrl_updates_coalesced;
    manifest.ctrl_batches = result.ctrl_batches;
    manifest.ctrl_tree_depth = result.ctrl_tree_depth;
    manifest.ctrl_coalescing_ratio = result.ctrl_coalescing_ratio();
  }

  obs::CounterRegistry& counters = manifest.counters;
  counters.set("jobs_arrived", result.jobs_arrived);
  counters.set("jobs_local", result.jobs_local);
  counters.set("jobs_remote", result.jobs_remote);
  counters.set("jobs_completed", result.jobs_completed);
  counters.set("jobs_succeeded", result.jobs_succeeded);
  counters.set("jobs_missed_deadline", result.jobs_missed_deadline);
  counters.set("jobs_unfinished", result.jobs_unfinished);
  counters.set("polls", result.polls);
  counters.set("transfers", result.transfers);
  counters.set("auctions", result.auctions);
  counters.set("adverts", result.adverts);
  counters.set("updates_received", result.updates_received);
  counters.set("updates_suppressed", result.updates_suppressed);
  counters.set("network_messages", result.network_messages);
  counters.set("messages_dropped", result.messages_dropped);
  counters.set("events_dispatched", result.events_dispatched);
  counters.set_real("G_scheduler", result.G_scheduler);
  counters.set_real("G_estimator", result.G_estimator);
  counters.set_real("G_middleware", result.G_middleware);
  counters.set_real("H_control", result.H_control);
  counters.set_real("H_wasted", result.H_wasted);

  // Fault-injection block: only when the run actually injected faults,
  // keeping zero-fault manifests byte-identical to the pre-fault format.
  manifest.fault_spec = config.faults.to_spec();
  if (!manifest.fault_spec.empty()) {
    manifest.availability = result.availability;
    manifest.efficiency_avail = result.efficiency_avail();
    counters.set("resource_crashes", result.resource_crashes);
    counters.set("resource_recoveries", result.resource_recoveries);
    counters.set("jobs_killed", result.jobs_killed);
    counters.set("jobs_requeued", result.jobs_requeued);
    counters.set("jobs_lost", result.jobs_lost);
    counters.set("round_retries", result.round_retries);
    counters.set("status_evictions", result.status_evictions);
    counters.set("blackout_drops", result.blackout_drops);
    counters.set("messages_delayed", result.messages_delayed);
    counters.set("messages_duplicated", result.messages_duplicated);
    counters.set_real("resource_downtime", result.resource_downtime);
    // Gated one level deeper so pre-existing fault manifests also keep
    // their exact counter set.
    if (config.faults.aggregator_blackout.enabled()) {
      counters.set("aggregator_blackouts", result.aggregator_blackouts);
    }
  }
}

}  // namespace scal::grid
