#include "obs/manifest.hpp"

#include <ctime>
#include <fstream>

#include "obs/json.hpp"
#include "util/log.hpp"

#ifndef SCAL_GIT_DESCRIBE
#define SCAL_GIT_DESCRIBE "unknown"
#endif

namespace scal::obs {

std::string git_describe() { return SCAL_GIT_DESCRIBE; }

std::string utc_timestamp() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

std::string RunManifest::to_json() const {
  JsonObject obj;
  obj.field("label", label)
      .field("started_at", started_at)
      .field("git", git_version)
      .field("wall_seconds", wall_seconds)
      .field("jobs", jobs);

  JsonObject config;
  config.field("rms", rms)
      .field("seed", seed)
      .field("horizon", horizon)
      .field("nodes", nodes)
      .field("clusters", clusters)
      .field("estimators_per_cluster", estimators_per_cluster)
      .field("service_rate", service_rate)
      .field("heterogeneity", heterogeneity)
      .field("mean_interarrival", mean_interarrival);
  JsonObject tuning;
  tuning.field("update_interval", update_interval)
      .field("neighborhood_size", neighborhood_size)
      .field("link_delay_scale", link_delay_scale)
      .field("volunteer_interval", volunteer_interval);
  if (control_plane) {
    tuning.field("agg_fanout", agg_fanout)
        .field("agg_batch", agg_batch)
        .field("agg_flush", agg_flush);
  }
  config.raw("tuning", tuning.str());
  if (control_plane) config.field("control_plane", true);
  obj.raw("config", config.str());

  JsonObject result;
  result.field("F", F)
      .field("G", G)
      .field("H", H)
      .field("efficiency", efficiency)
      .field("throughput", throughput)
      .field("mean_response", mean_response)
      .field("p95_response", p95_response)
      .field("G_scheduler_max_share", G_scheduler_max_share);
  obj.raw("result", result.str());

  if (!fault_spec.empty()) {
    JsonObject faults;
    faults.field("spec", fault_spec)
        .field("availability", availability)
        .field("efficiency_avail", efficiency_avail);
    obj.raw("faults", faults.str());
  }

  if (!workload_source.empty()) {
    JsonObject workload;
    workload.field("source", workload_source)
        .field("jobs", workload_jobs)
        .field("span", workload_span)
        .field("mean_interarrival", workload_mean_interarrival)
        .field("mean_exec", workload_mean_exec)
        .field("from_cache", workload_from_cache)
        .field("arrival_cache_hits", arrival_cache_hits);
    if (arrival_cache_evictions > 0) {
      workload.field("arrival_cache_evictions", arrival_cache_evictions);
    }
    if (arrival_cache_store_skips > 0) {
      workload.field("arrival_cache_store_skips", arrival_cache_store_skips);
    }
    obj.raw("workload", workload.str());
  }

  if (!result_mode.empty()) {
    JsonObject memory;
    memory.field("result_mode", result_mode)
        .field("job_log_records", job_log_records)
        .field("job_log_dropped", job_log_dropped)
        .field("arena_high_water", arena_high_water)
        .field("arena_reuses", arena_reuses);
    obj.raw("memory", memory.str());
  }

  if (control_plane) {
    JsonObject ctrl;
    ctrl.field("G_aggregator", G_aggregator)
        .field("updates_in", ctrl_updates_in)
        .field("updates_coalesced", ctrl_updates_coalesced)
        .field("coalescing_ratio", ctrl_coalescing_ratio)
        .field("batches", ctrl_batches)
        .field("tree_depth", ctrl_tree_depth);
    obj.raw("ctrl", ctrl.str());
  }

  obj.raw("counters", counters.to_json());

  if (anneal_iterations > 0) {
    JsonObject anneal;
    anneal.field("iterations", anneal_iterations)
        .field("accepted", anneal_accepted)
        .field("improving", anneal_improving)
        .field("best_objective", anneal_best_objective);
    obj.raw("anneal", anneal.str());
  }

  if (reuse_enabled) {
    JsonObject reuse;
    reuse.field("tree_shares", reuse_tree_shares)
        .field("tree_publishes", reuse_tree_publishes)
        .field("inflight_waits", reuse_inflight_waits)
        .field("disk_hits", reuse_disk_hits)
        .field("disk_entries", reuse_disk_entries);
    obj.raw("reuse", reuse.str());
  }

  if (!metrics_json.empty()) obj.raw("metrics", metrics_json);

  if (peak_rss_bytes > 0) obj.field("peak_rss_bytes", peak_rss_bytes);

  if (tuner_evaluations > 0) {
    JsonObject tuner;
    tuner.field("evaluations", tuner_evaluations)
        .field("cache_hits", tuner_cache_hits)
        .field("hit_rate", static_cast<double>(tuner_cache_hits) /
                               static_cast<double>(tuner_evaluations));
    obj.raw("tuner", tuner.str());
  }
  return obj.str();
}

bool RunManifest::append_jsonl(const std::string& path) const {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    SCAL_WARN("manifest: cannot open " << path);
    return false;
  }
  out << to_json() << '\n';
  return static_cast<bool>(out);
}

}  // namespace scal::obs
