// rmsbench: the repository benchmark's measuring program.
//
//   rmsbench --workload NAME --seed N --seconds S --trace 0|1
//   rmsbench --self-test
//
// Runs one workload (tuned_campaign, long_horizon, faulty_replicas) for
// about S seconds of repetitions and prints one JSON object with the raw
// samples: per-repetition set-up, wall and CPU times, per-unit latencies,
// work totals, output digests and, with --trace 1, the per-layer counts
// and span times.  run.py turns those into the reported metrics.
//
// Every repetition starts cold: the process-wide ArrivalCache and
// SharedTreeCache are cleared first, as a user's fresh process finds
// them.  Spans are taken here, around the calls into each module's
// public API; nothing inside src/ is instrumented or changed.

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include <malloc.h>
#include <sys/resource.h>

#include "common.hpp"
#include "core/procedure.hpp"
#include "exec/thread_pool.hpp"
#include "fault/plan.hpp"
#include "grid/digest.hpp"
#include "net/tree_cache.hpp"
#include "rms/factory.hpp"
#include "rms/scenario.hpp"
#include "workload/arrival_cache.hpp"
#include "workload/source.hpp"

namespace {

using namespace scal;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Workload sizes.  Changing any of these changes the benchmark.

/// tuned_campaign: the paper's Fig. 1 procedure on Case 1.
constexpr std::array<double, 3> kCampaignLadder = {1, 2, 3};
constexpr std::size_t kCampaignEvaluations = 12;  ///< base-point budget
constexpr std::size_t kCampaignWarmEvaluations = 6;
constexpr std::size_t kCampaignLanes = 2;

/// long_horizon: one streaming run per kind at the Case-1 base.
constexpr double kLongHorizon = 6000.0;

/// faulty_replicas: fresh Case-2 runs per (seed, kind) under faults.
constexpr std::size_t kFaultySeeds = 3;
constexpr double kFaultyHorizon = 400.0;
constexpr const char* kFaultSpec = "churn:mtbf=300,mttr=30;net:drop=0.02";
constexpr std::uint32_t kAggFanout = 4;
constexpr std::uint32_t kAggBatch = 16;
constexpr double kAggFlush = 40.0;

/// How often the heap sampler reads the live heap.
constexpr std::chrono::milliseconds kHeapSamplePeriod{5};

/// Repetitions measured even when one outlasts --seconds: at least
/// kMinReps, and enough for kTailWindow latency samples (the tail is
/// taken over the last kTailWindow samples, which fixes its percentile;
/// run.py's TAIL_WINDOW must match).
constexpr std::size_t kMinReps = 3;
constexpr std::size_t kTailWindow = 100;
/// A traced run alternates untraced and traced repetitions.
constexpr std::size_t kMinTracedReps = 4;
/// A run stops starting repetitions after this long, so it ends in time.
constexpr double kRunawaySeconds = 140.0;

// ---------------------------------------------------------------------------
// Small utilities.

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return tv(usage.ru_utime) + tv(usage.ru_stime);
}

/// splitmix64: derives independent input seeds from the --seed argument.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// FNV-1a over exact bit patterns: equal digests mean bit-equal outputs.
class Digest {
 public:
  Digest& add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
    return *this;
  }
  Digest& add(double v) { return add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// The figure-facing outputs of one run: F/G/H, the response and
/// throughput measures and every protocol, control-plane and fault
/// counter.  The p95 response is left out: the streaming tier reports
/// it from a histogram, the full tier exactly, and the two must agree
/// on everything folded here.
void fold(Digest& d, const grid::SimulationResult& r) {
  d.add(r.F).add(r.G_scheduler).add(r.G_estimator).add(r.G_middleware);
  d.add(r.G_aggregator).add(r.H_control).add(r.H_wasted);
  d.add(r.throughput).add(r.mean_response);
  for (const std::uint64_t v :
       {r.jobs_arrived, r.jobs_local, r.jobs_remote, r.jobs_completed,
        r.jobs_succeeded, r.jobs_missed_deadline, r.jobs_unfinished, r.polls,
        r.transfers, r.auctions, r.adverts, r.updates_received,
        r.updates_suppressed, r.network_messages, r.messages_dropped,
        r.events_dispatched, r.ctrl_updates_in, r.ctrl_updates_coalesced,
        r.ctrl_batches, r.resource_crashes, r.resource_recoveries,
        r.jobs_killed, r.jobs_requeued, r.jobs_lost, r.round_retries}) {
    d.add(v);
  }
}

std::uint64_t digest_of(const grid::SimulationResult& r) {
  Digest d;
  fold(d, r);
  return d.value();
}

/// The tuned outputs of one kind's sweep: per k the tuned G, E and the
/// enabler point.
std::uint64_t digest_of(const core::CaseResult& c) {
  Digest d;
  d.add(static_cast<std::uint64_t>(c.rms));
  for (const core::ScalePoint& p : c.points) {
    d.add(p.k).add(p.sim.G()).add(p.sim.efficiency());
    d.add(p.tuning.update_interval).add(p.tuning.link_delay_scale);
    d.add(p.tuning.volunteer_interval).add(p.tuning.agg_flush);
    d.add(static_cast<std::uint64_t>(p.tuning.neighborhood_size));
    d.add(static_cast<std::uint64_t>(p.tuning.agg_fanout));
    d.add(static_cast<std::uint64_t>(p.tuning.agg_batch));
    d.add(static_cast<std::uint64_t>(p.feasible));
  }
  return d.value();
}

/// Per-layer counts of a set of runs (sums over runs).
struct Counts {
  std::uint64_t runs = 0, events = 0, jobs = 0, messages = 0, dropped = 0;
  std::uint64_t updates = 0, suppressed = 0, decisions = 0, local = 0,
                remote = 0;
  std::uint64_t ctrl_in = 0, coalesced = 0, batches = 0;
  std::uint64_t crashes = 0, killed = 0, requeued = 0, retries = 0;

  void add(const grid::SimulationResult& r) {
    ++runs;
    events += r.events_dispatched;
    jobs += r.jobs_arrived;
    messages += r.network_messages;
    dropped += r.messages_dropped;
    updates += r.updates_received;
    suppressed += r.updates_suppressed;
    decisions += r.polls + r.transfers + r.auctions + r.adverts;
    local += r.jobs_local;
    remote += r.jobs_remote;
    ctrl_in += r.ctrl_updates_in;
    coalesced += r.ctrl_updates_coalesced;
    batches += r.ctrl_batches;
    crashes += r.resource_crashes;
    killed += r.jobs_killed;
    requeued += r.jobs_requeued;
    retries += r.round_retries;
  }
  void merge(const Counts& o) {
    runs += o.runs;
    events += o.events;
    jobs += o.jobs;
    messages += o.messages;
    dropped += o.dropped;
    updates += o.updates;
    suppressed += o.suppressed;
    decisions += o.decisions;
    local += o.local;
    remote += o.remote;
    ctrl_in += o.ctrl_in;
    coalesced += o.coalesced;
    batches += o.batches;
    crashes += o.crashes;
    killed += o.killed;
    requeued += o.requeued;
    retries += o.retries;
  }
  bool operator==(const Counts&) const = default;
};

/// Spans of one traced repetition, summed by name.  Recorded around the
/// calls into each module, from any lane.
class Spans {
 public:
  void add(const std::string& name, double seconds) {
    std::lock_guard<std::mutex> lock(mutex_);
    Total& t = totals_[name];
    t.seconds += seconds;
    ++t.count;
  }
  double seconds(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0.0 : it->second.seconds;
  }
  std::uint64_t count(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = totals_.find(name);
    return it == totals_.end() ? 0 : it->second.count;
  }

 private:
  struct Total {
    double seconds = 0.0;
    std::uint64_t count = 0;
  };
  mutable std::mutex mutex_;
  std::map<std::string, Total> totals_;
};

/// Times one call into a layer and records it under `name`.
template <typename Fn>
auto timed(Spans* spans, const std::string& name, Fn&& fn) {
  const auto t0 = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    if (spans != nullptr) spans->add(name, since(t0));
  } else {
    auto value = fn();
    if (spans != nullptr) spans->add(name, since(t0));
    return value;
  }
}

/// Samples the live heap (glibc mallinfo2: bytes in use plus mmapped
/// blocks) every kHeapSamplePeriod on a background thread, from
/// construction to stop().  The process's peak RSS also holds freed
/// memory the allocator kept and the reference pass, so a repetition's
/// own footprint is read here.
class HeapSampler {
 public:
  HeapSampler() : thread_([this] { loop(); }) {}
  HeapSampler(const HeapSampler&) = delete;
  HeapSampler& operator=(const HeapSampler&) = delete;
  ~HeapSampler() { stop(); }

  /// Stops sampling (idempotent); returns the peak in bytes.
  double stop() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    return static_cast<double>(std::max(peak_, live()));
  }

 private:
  static std::size_t live() {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  }

  void loop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      peak_ = std::max(peak_, live());
      cv_.wait_for(lock, kHeapSamplePeriod, [this] { return stop_; });
    }
  }

  std::mutex mutex_;  // guards stop_ and peak_
  std::condition_variable cv_;
  bool stop_ = false;
  std::size_t peak_ = 0;
  std::thread thread_;
};

/// Clears the process-wide memo tiers so a repetition starts cold.
void clear_process_caches() {
  workload::ArrivalCache::instance().clear();
  net::SharedTreeCache::instance().clear();
}

/// Flat name -> value record of one repetition's layer readings.
using Layer = std::map<std::string, double>;

void put_counts(Layer& layer, const Counts& c) {
  auto u = [](std::uint64_t v) { return static_cast<double>(v); };
  layer["sim.events"] = u(c.events);
  layer["workload.jobs"] = u(c.jobs);
  layer["net.messages"] = u(c.messages);
  layer["net.messages_dropped"] = u(c.dropped);
  layer["grid.status_updates"] = u(c.updates);
  layer["grid.updates_suppressed"] = u(c.suppressed);
  layer["rms.decisions"] = u(c.decisions);
  layer["rms.jobs_local"] = u(c.local);
  layer["rms.jobs_remote"] = u(c.remote);
  layer["ctrl.updates_in"] = u(c.ctrl_in);
  layer["ctrl.coalesced"] = u(c.coalesced);
  layer["ctrl.batches"] = u(c.batches);
  layer["fault.crashes"] = u(c.crashes);
  layer["fault.jobs_killed"] = u(c.killed);
  layer["fault.jobs_requeued"] = u(c.requeued);
  layer["fault.round_retries"] = u(c.retries);
}

void put_caches(Layer& layer) {
  const auto& trees = net::SharedTreeCache::instance();
  const auto& arrivals = workload::ArrivalCache::instance();
  layer["net.tree_shares"] = static_cast<double>(trees.shares());
  layer["net.tree_misses"] = static_cast<double>(trees.misses());
  layer["workload.arrival_hits"] = static_cast<double>(arrivals.hits());
  layer["workload.arrival_misses"] = static_cast<double>(arrivals.misses());
}

/// One settle pass over every source of a freshly built system's router
/// (all destinations, so each source tree settles completely).
double route_settle_seconds(grid::GridSystem& system) {
  const net::Router& router = system.network().router();
  router.clear_cache();
  const auto n =
      static_cast<net::NodeId>(system.config().topology.nodes);
  double sink = 0.0;
  const auto t0 = Clock::now();
  for (net::NodeId src = 0; src < n; ++src) {
    for (net::NodeId dst = 0; dst < n; ++dst) {
      sink += router.delay(src, dst, 1.0);
    }
  }
  const double seconds = since(t0);
  if (!(sink >= 0.0)) throw std::runtime_error("route settle: bad delay");
  return seconds;
}

/// Pulls `config`'s arrival stream through the public JobStream API
/// without simulating; returns ns per job.  Leaves the ArrivalCache as it
/// found it apart from its counters, which the caller resets.
double pull_ns_per_job(const grid::GridConfig& config) {
  workload::WorkloadConfig wl = config.workload;
  wl.clusters = static_cast<std::uint32_t>(config.cluster_count());
  const auto t0 = Clock::now();
  workload::PulledArrivals pulled = workload::cached_stream(
      grid::workload_digest(config), config.workload_source, wl, config.seed,
      config.horizon, /*reusable=*/false);
  workload::Job job;
  std::uint64_t jobs = 0;
  double last = 0.0;
  while (pulled.stream->next(job)) {
    if (job.arrival < last) throw std::runtime_error("pull: arrivals out of order");
    last = job.arrival;
    ++jobs;
  }
  const double seconds = since(t0);
  if (jobs == 0) throw std::runtime_error("pull: empty stream");
  return 1e9 * seconds / static_cast<double>(jobs);
}

// ---------------------------------------------------------------------------
// Repetition record shared by all workloads.

struct Rep {
  bool traced = false;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double heap_bytes = 0.0;             ///< peak live heap, timed section
  std::vector<double> unit_ms;         ///< per-unit latency samples
  std::vector<std::uint64_t> digests;  ///< per-unit output digests
  std::uint64_t evaluations = 0;       ///< logical evaluations (reference)
  std::optional<Counts> counts;        ///< when the repetition could count
  std::vector<std::string> problems;   ///< failed internal checks
  Layer layer;                         ///< traced readings
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Untimed reference pass: its digests are the outputs every timed
  /// repetition must reproduce, and its counts the work one repetition
  /// does.
  virtual Rep reference() = 0;
  /// One timed repetition, cold.
  virtual Rep rep(bool traced) = 0;
  /// Latency samples one repetition yields.
  virtual std::size_t units_per_rep() const = 0;
  /// The config whose topology and arrival stream the traced probes use.
  virtual grid::GridConfig probe_config() const = 0;
  virtual std::size_t lanes() const { return 1; }
};

/// Span-derived readings of a traced repetition.
/// `run_events` are the events of the runs whose spans make grid.run_s
/// (tuned_campaign's calibration run is timed under core.calibrate).
void put_spans(Rep& rep, const Spans& spans,
               const std::vector<grid::RmsKind>& kinds, std::size_t lanes,
               std::uint64_t run_events) {
  rep.layer["grid.build_s"] = spans.seconds("grid.build");
  rep.layer["grid.builds"] = static_cast<double>(spans.count("grid.build"));
  rep.layer["grid.reset_s"] = spans.seconds("grid.reset");
  rep.layer["grid.resets"] = static_cast<double>(spans.count("grid.reset"));
  double run_s = 0.0;
  for (const grid::RmsKind kind : kinds) {
    const double s = spans.seconds("rms.run." + grid::to_string(kind));
    rep.layer["rms.run_s." + grid::to_string(kind)] = s;
    run_s += s;
  }
  rep.layer["grid.run_s"] = run_s;
  rep.layer["grid.run_events"] = static_cast<double>(run_events);
  rep.layer["exec.busy_s"] =
      spans.seconds("grid.build") + spans.seconds("grid.reset") + run_s;
  rep.layer["exec.lanes"] = static_cast<double>(lanes);
  rep.layer["core.calibrate_ms"] = 1e3 * spans.seconds("core.calibrate");
}

// ---------------------------------------------------------------------------
// tuned_campaign

/// A SimRunner that applies rms::SimulationSession's reuse rule through
/// the public GridSystem API, one warm system per lane, and times build,
/// reset and run separately.  Results are bit-identical to the session
/// backend; only the timing is observed.
class TimingRunner {
 public:
  explicit TimingRunner(Spans* spans) : spans_(spans) {}
  TimingRunner(const TimingRunner&) = delete;
  TimingRunner& operator=(const TimingRunner&) = delete;

  grid::SimulationResult operator()(const grid::GridConfig& config) {
    std::unique_ptr<grid::GridSystem>& system = lane_system();
    if (system != nullptr && system->reset_compatible(config)) {
      timed(spans_, "grid.reset", [&] { system->reset(config); });
      resets_.fetch_add(1);
    } else {
      grid::GridConfig effective = config;
      effective.share_router_trees = config.telemetry == nullptr;
      system.reset();
      system = timed(spans_, "grid.build", [&] {
        return std::make_unique<grid::GridSystem>(
            effective, rms::scheduler_factory(effective.rms));
      });
      builds_.fetch_add(1);
    }
    grid::SimulationResult result =
        timed(spans_, "rms.run." + grid::to_string(config.rms),
              [&] { return system->run(); });
    std::lock_guard<std::mutex> lock(mutex_);
    counts_.add(result);
    return result;
  }

  core::SimRunner runner() {
    return [this](const grid::GridConfig& c) { return (*this)(c); };
  }
  Counts counts() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return counts_;
  }
  std::uint64_t builds() const { return builds_.load(); }
  std::uint64_t resets() const { return resets_.load(); }

 private:
  /// This lane's warm system.  The map entry's address is stable, and
  /// only its own thread touches it after creation.
  std::unique_ptr<grid::GridSystem>& lane_system() {
    std::lock_guard<std::mutex> lock(mutex_);
    return systems_[std::this_thread::get_id()];
  }

  Spans* spans_;
  mutable std::mutex mutex_;  // guards systems_ (the map) and counts_
  std::map<std::thread::id, std::unique_ptr<grid::GridSystem>> systems_;
  Counts counts_;
  std::atomic<std::uint64_t> builds_{0};
  std::atomic<std::uint64_t> resets_{0};
};

class TunedCampaign final : public Workload {
 public:
  /// `reference_lanes` is the lane count of the reference pass; a traced
  /// run makes it 1, so the timed repetitions at kCampaignLanes are
  /// checked against the serial campaign bit for bit.
  TunedCampaign(std::uint64_t seed, std::size_t reference_lanes)
      : reference_lanes_(reference_lanes) {
    // The seed makes the topology and the arrivals (and through the
    // calibration run, E0); the tuner's search seed is part of the
    // procedure and keeps its default, as in the figure benches.
    base_ = bench::case1_base();
    base_.seed = mix(seed, 1);
    procedure_.scase = core::ScalingCase::case1_network_size();
    procedure_.scale_factors.assign(kCampaignLadder.begin(),
                                    kCampaignLadder.end());
    procedure_.tuner.evaluations = kCampaignEvaluations;
    procedure_.warm_evaluations = kCampaignWarmEvaluations;
    procedure_.tuner.band = 0.03;
    kinds_ = bench::all_rms();
  }

  std::size_t lanes() const override { return kCampaignLanes; }
  std::size_t units_per_rep() const override {
    return kinds_.size() * (kCampaignLadder.size() - 1);
  }
  grid::GridConfig probe_config() const override { return base_; }

  Rep reference() override {
    // The reference pass runs the calibration scenario itself (to count
    // its work and check calibrate_e0 against it) and the sweep through
    // the timing runner.  The caches are cleared again before
    // calibrate_e0, so from there on the pass looks them up exactly as a
    // repetition does.
    clear_process_caches();
    Rep rep;
    const grid::SimulationResult calibration =
        Scenario(core::apply_scale(base_, procedure_.scase, k_mid()))
            .rms(grid::RmsKind::kLowest)
            .run();
    calibration_.add(calibration);
    clear_process_caches();
    const double e0 = bench::calibrate_e0(base_, procedure_.scase, k_mid());
    if (std::bit_cast<std::uint64_t>(e0) !=
        std::bit_cast<std::uint64_t>(calibration.efficiency())) {
      rep.problems.push_back("calibrate_e0 disagrees with its scenario");
    }
    Spans spans;
    TimingRunner runner(&spans);
    sweep(rep, e0, reference_lanes_, runner);
    Counts counts = calibration_;
    counts.merge(runner.counts());
    rep.counts = counts;
    rep.layer["rms.session_builds"] = static_cast<double>(runner.builds());
    rep.layer["rms.session_resets"] = static_cast<double>(runner.resets());
    put_caches(rep.layer);
    return rep;
  }

  Rep rep(bool traced) override {
    Rep rep;
    rep.traced = traced;
    const auto s0 = Clock::now();
    clear_process_caches();
    exec::ThreadPool pool(kCampaignLanes - 1);
    rep.setup_s = since(s0);

    Spans spans;
    std::optional<TimingRunner> runner;
    if (traced) runner.emplace(&spans);
    HeapSampler heap;
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    const double e0 = timed(traced ? &spans : nullptr, "core.calibrate", [&] {
      return bench::calibrate_e0(base_, procedure_.scase, k_mid());
    });
    // Untraced: the production empty-runner (session) backend.
    sweep(rep, e0, &pool, runner ? &*runner : nullptr);
    rep.wall_s = since(t0);
    rep.cpu_s = cpu_seconds() - c0;
    rep.heap_bytes = heap.stop();
    if (traced) {
      Counts counts = calibration_;
      counts.merge(runner->counts());
      rep.counts = counts;
      put_counts(rep.layer, counts);
      put_caches(rep.layer);
      put_spans(rep, spans, kinds_, kCampaignLanes, runner->counts().events);
      rep.layer["rms.session_builds"] = static_cast<double>(runner->builds());
      rep.layer["rms.session_resets"] = static_cast<double>(runner->resets());
      if (runner->counts().runs != rep.layer["opt.simulations"]) {
        rep.problems.push_back(
            "simulations run differ from evaluations minus cache hits");
      }
    }
    return rep;
  }

 private:
  double k_mid() const { return kCampaignLadder[kCampaignLadder.size() / 2]; }

  void sweep(Rep& rep, double e0, std::size_t lanes, TimingRunner& runner) {
    std::optional<exec::ThreadPool> pool;
    if (lanes > 1) pool.emplace(lanes - 1);
    sweep(rep, e0, pool ? &*pool : nullptr, &runner);
  }

  /// calibrate_e0 has run; measure_all over every kind, on the session
  /// backend when `runner` is null.
  void sweep(Rep& rep, double e0, exec::ThreadPool* pool,
             TimingRunner* runner) {
    core::ProcedureConfig procedure = procedure_;
    procedure.pool = pool;
    procedure.tuner.e0 = e0;
    // Latency of each tuned point after a kind's first: the time since
    // that kind's previous point.  (A kind's first point also waits for
    // a free lane, and when it got one is not observable.)  Progress
    // calls arrive serialized.
    std::map<grid::RmsKind, Clock::time_point> last;
    core::ProgressFn progress = [&](grid::RmsKind kind, double,
                                    const core::TuneOutcome&) {
      const auto now = Clock::now();
      const auto it = last.find(kind);
      if (it != last.end()) {
        rep.unit_ms.push_back(
            1e3 * std::chrono::duration<double>(now - it->second).count());
      }
      last[kind] = now;
    };
    const std::vector<core::CaseResult> results = core::measure_all(
        base_, kinds_, procedure,
        runner ? runner->runner() : core::SimRunner{}, progress);
    std::uint64_t evaluations = 0, hits = 0, feasible = 0;
    for (const core::CaseResult& c : results) {
      rep.digests.push_back(digest_of(c));
      for (const core::ScalePoint& p : c.points) {
        evaluations += p.tuner_evaluations;
        hits += p.tuner_cache_hits;
        feasible += p.feasible ? 1 : 0;
      }
    }
    Digest e0_digest;
    e0_digest.add(e0);
    rep.digests.push_back(e0_digest.value());
    rep.evaluations = evaluations;
    rep.layer["opt.evaluations"] = static_cast<double>(evaluations);
    rep.layer["opt.cache_hits"] = static_cast<double>(hits);
    rep.layer["opt.simulations"] = static_cast<double>(evaluations - hits);
    rep.layer["core.points_feasible"] = static_cast<double>(feasible);
  }

  grid::GridConfig base_;
  core::ProcedureConfig procedure_;
  std::vector<grid::RmsKind> kinds_;
  std::size_t reference_lanes_;
  Counts calibration_;  ///< the calibration run's work
};

// ---------------------------------------------------------------------------
// long_horizon

class LongHorizon final : public Workload {
 public:
  explicit LongHorizon(std::uint64_t seed) {
    base_ = bench::case1_base();
    base_.seed = mix(seed, 1);
    base_.horizon = kLongHorizon;
    base_.result_mode = grid::ResultMode::kStreaming;
    kinds_ = bench::all_rms();
  }

  std::size_t units_per_rep() const override { return kinds_.size(); }
  grid::GridConfig probe_config() const override { return base_; }

  Rep reference() override {
    // The same runs on the full-result tier: the streaming tier must
    // reproduce every folded output bit for bit.
    clear_process_caches();
    Rep rep;
    Counts counts;
    for (const grid::RmsKind kind : kinds_) {
      grid::GridConfig config = base_;
      config.result_mode = grid::ResultMode::kFull;
      const grid::SimulationResult r = Scenario(config).rms(kind).run();
      counts.add(r);
      rep.digests.push_back(digest_of(r));
    }
    rep.counts = counts;
    rep.evaluations = kinds_.size();
    return rep;
  }

  Rep rep(bool traced) override {
    Rep rep;
    rep.traced = traced;
    Spans spans;
    Spans* sp = traced ? &spans : nullptr;
    const auto s0 = Clock::now();
    clear_process_caches();
    std::vector<std::unique_ptr<grid::GridSystem>> systems;
    for (const grid::RmsKind kind : kinds_) {
      systems.push_back(timed(
          sp, "grid.build", [&] { return Scenario(base_).rms(kind).build(); }));
    }
    rep.setup_s = since(s0);

    Counts counts;
    HeapSampler heap;
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < kinds_.size(); ++i) {
      const auto u0 = Clock::now();
      const grid::SimulationResult r =
          timed(sp, "rms.run." + grid::to_string(kinds_[i]),
                [&] { return systems[i]->run(); });
      rep.unit_ms.push_back(1e3 * since(u0));
      rep.digests.push_back(digest_of(r));
      counts.add(r);
    }
    rep.wall_s = since(t0);
    rep.cpu_s = cpu_seconds() - c0;
    rep.heap_bytes = heap.stop();
    rep.counts = counts;
    if (traced) {
      put_counts(rep.layer, counts);
      put_caches(rep.layer);
      put_spans(rep, spans, kinds_, 1, counts.events);
      // The builds are set-up, outside the timed section.
      rep.layer["exec.busy_s"] = rep.layer["grid.run_s"];
      rep.layer["rms.session_builds"] = static_cast<double>(kinds_.size());
      rep.layer["rms.session_resets"] = 0.0;
    }
    return rep;
  }

 private:
  grid::GridConfig base_;
  std::vector<grid::RmsKind> kinds_;
};

// ---------------------------------------------------------------------------
// faulty_replicas

class FaultyReplicas final : public Workload {
 public:
  explicit FaultyReplicas(std::uint64_t seed) {
    grid::GridConfig base = bench::case2_base();
    base.horizon = kFaultyHorizon;
    base.faults = fault::FaultPlan::parse(kFaultSpec);
    base.control_plane = true;
    base.tuning.agg_fanout = kAggFanout;
    base.tuning.agg_batch = kAggBatch;
    base.tuning.agg_flush = kAggFlush;
    kinds_ = bench::all_rms();
    for (std::size_t s = 0; s < kFaultySeeds; ++s) {
      grid::GridConfig config = base;
      config.seed = mix(seed, 10 + s);
      for (const grid::RmsKind kind : kinds_) {
        config.rms = kind;
        configs_.push_back(config);
      }
    }
  }

  std::size_t units_per_rep() const override { return configs_.size(); }
  grid::GridConfig probe_config() const override { return configs_.front(); }

  Rep reference() override {
    clear_process_caches();
    Rep rep;
    Counts counts;
    for (const grid::GridConfig& config : configs_) {
      const grid::SimulationResult r = Scenario(config).run();
      counts.add(r);
      rep.digests.push_back(digest_of(r));
    }
    rep.counts = counts;
    rep.evaluations = configs_.size();
    return rep;
  }

  Rep rep(bool traced) override {
    Rep rep;
    rep.traced = traced;
    Spans spans;
    Spans* sp = traced ? &spans : nullptr;
    const auto s0 = Clock::now();
    clear_process_caches();
    std::vector<Scenario> scenarios;
    scenarios.reserve(configs_.size());
    for (const grid::GridConfig& config : configs_) {
      config.validate();
      scenarios.emplace_back(config);
    }
    rep.setup_s = since(s0);

    Counts counts;
    HeapSampler heap;
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    for (const Scenario& scenario : scenarios) {
      const auto u0 = Clock::now();
      std::unique_ptr<grid::GridSystem> system =
          timed(sp, "grid.build", [&] { return scenario.build(); });
      const grid::SimulationResult r =
          timed(sp, "rms.run." + grid::to_string(scenario.config().rms),
                [&] { return system->run(); });
      rep.unit_ms.push_back(1e3 * since(u0));
      rep.digests.push_back(digest_of(r));
      counts.add(r);
    }
    rep.wall_s = since(t0);
    rep.cpu_s = cpu_seconds() - c0;
    rep.heap_bytes = heap.stop();
    rep.counts = counts;
    if (traced) {
      put_counts(rep.layer, counts);
      put_caches(rep.layer);
      put_spans(rep, spans, kinds_, 1, counts.events);
      rep.layer["rms.session_builds"] = static_cast<double>(configs_.size());
      rep.layer["rms.session_resets"] = 0.0;
    }
    return rep;
  }

 private:
  std::vector<grid::RmsKind> kinds_;
  std::vector<grid::GridConfig> configs_;
};

/// The traced run's two stand-alone probes: one settle pass over every
/// source of the workload's topology, and one pull of its arrival
/// stream.  Both start and end with cold caches.
void probe_layers(Rep& rep, const grid::GridConfig& config) {
  clear_process_caches();
  {
    std::unique_ptr<grid::GridSystem> system = Scenario(config).build();
    rep.layer["net.route_settle_ms"] = 1e3 * route_settle_seconds(*system);
  }
  clear_process_caches();
  rep.layer["workload.pull_ns_per_job"] = pull_ns_per_job(config);
  clear_process_caches();
}

// ---------------------------------------------------------------------------
// Output.

void put_json(std::ostream& out, double v) {
  std::ostringstream s;
  s << std::setprecision(17) << v;
  out << s.str();
}

void put_json(std::ostream& out, const std::vector<double>& v) {
  out << '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out << ',';
    put_json(out, v[i]);
  }
  out << ']';
}

void put_json(std::ostream& out, const Layer& layer) {
  out << '{';
  bool first = true;
  for (const auto& [name, value] : layer) {
    out << (first ? "" : ",") << '"' << name << "\":";
    put_json(out, value);
    first = false;
  }
  out << '}';
}

std::string hex(std::uint64_t v) {
  std::ostringstream s;
  s << std::hex << std::setw(16) << std::setfill('0') << v;
  return s.str();
}

std::string quote(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\r') ? ' ' : c;
  }
  return out + "\"";
}

struct Run {
  std::string workload;
  std::uint64_t seed = 0;
  bool trace = false;
  std::size_t lanes = 1;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  std::uint64_t digest = 0;
  double reference_s = 0.0;
  std::optional<Rep> reference;
  std::vector<Rep> reps;
};

void print(const Run& run) {
  std::ostringstream out;
  out << "{\"workload\":" << quote(run.workload) << ",\"seed\":" << run.seed
      << ",\"trace\":" << (run.trace ? 1 : 0) << ",\"lanes\":" << run.lanes
      << ",\"attempted\":" << run.attempted << ",\"failed\":" << run.failed
      << ",\"digest\":" << quote(hex(run.digest)) << ",\"reference_s\":";
  put_json(out, run.reference_s);
  out << ",\"errors\":[";
  for (std::size_t i = 0; i < run.errors.size(); ++i) {
    out << (i ? "," : "") << quote(run.errors[i]);
  }
  out << "],\"peak_rss_bytes\":" << bench::peak_rss_bytes();
  if (run.reference && run.reference->counts) {
    const Counts& c = *run.reference->counts;
    out << ",\"work\":{\"runs\":" << c.runs << ",\"events\":" << c.events
        << ",\"jobs\":" << c.jobs
        << ",\"evaluations\":" << run.reference->evaluations << "}";
    out << ",\"reference_layer\":";
    put_json(out, run.reference->layer);
  }
  out << ",\"reps\":[";
  for (std::size_t i = 0; i < run.reps.size(); ++i) {
    const Rep& r = run.reps[i];
    out << (i ? "," : "") << "{\"traced\":" << (r.traced ? 1 : 0)
        << ",\"setup_s\":";
    put_json(out, r.setup_s);
    out << ",\"wall_s\":";
    put_json(out, r.wall_s);
    out << ",\"cpu_s\":";
    put_json(out, r.cpu_s);
    out << ",\"heap_bytes\":";
    put_json(out, r.heap_bytes);
    out << ",\"unit_ms\":";
    put_json(out, r.unit_ms);
    out << ",\"layer\":";
    put_json(out, r.layer);
    out << '}';
  }
  out << "]}";
  std::cout << out.str() << std::endl;
}

// ---------------------------------------------------------------------------
// Running a workload.

std::unique_ptr<Workload> make_workload(const Run& run) {
  if (run.workload == "tuned_campaign") {
    return std::make_unique<TunedCampaign>(run.seed,
                                           run.trace ? 1 : kCampaignLanes);
  }
  if (run.workload == "long_horizon") {
    return std::make_unique<LongHorizon>(run.seed);
  }
  if (run.workload == "faulty_replicas") {
    return std::make_unique<FaultyReplicas>(run.seed);
  }
  return nullptr;
}

/// Checks one repetition against the reference: every output digest
/// unit by unit, the counted work when the repetition counted it, the
/// tuner's evaluation and cache-hit counts when both record them, and
/// the repetition's own internal checks.  Each mismatch is one failure.
void check(Run& run, const Rep& rep, const Rep& reference) {
  run.attempted += reference.digests.size();
  for (const std::string& problem : rep.problems) {
    ++run.failed;
    run.errors.push_back(problem);
  }
  if (rep.digests.size() != reference.digests.size()) {
    run.failed += reference.digests.size();
    run.errors.push_back("repetition produced " +
                         std::to_string(rep.digests.size()) +
                         " outputs, not " +
                         std::to_string(reference.digests.size()));
    return;
  }
  for (std::size_t i = 0; i < rep.digests.size(); ++i) {
    if (rep.digests[i] != reference.digests[i]) {
      ++run.failed;
      run.errors.push_back("output " + std::to_string(i) +
                           " differs from the reference");
    }
  }
  if (rep.counts && reference.counts && !(*rep.counts == *reference.counts)) {
    ++run.failed;
    run.errors.push_back("counted work differs from the reference");
  }
  for (const char* key : {"opt.evaluations", "opt.cache_hits"}) {
    const auto mine = rep.layer.find(key);
    const auto theirs = reference.layer.find(key);
    if (mine != rep.layer.end() && theirs != reference.layer.end() &&
        mine->second != theirs->second) {
      ++run.failed;
      run.errors.push_back(std::string(key) + " differs from the reference");
    }
  }
}

void measure(Run& run, Workload& workload, double seconds) {
  const auto r0 = Clock::now();
  try {
    run.reference = workload.reference();
  } catch (const std::exception& e) {
    run.errors.push_back(std::string("reference: ") + e.what());
    run.attempted = run.failed = 1;
    return;
  }
  run.reference_s = since(r0);
  run.attempted += run.reference->problems.empty() ? 0 : 1;
  run.failed += run.reference->problems.empty() ? 0 : 1;
  for (const std::string& p : run.reference->problems) run.errors.push_back(p);
  Digest whole;
  for (const std::uint64_t d : run.reference->digests) whole.add(d);
  run.digest = whole.value();

  // Enough repetitions for kTailWindow latency samples; a traced run
  // alternates untraced and traced repetitions, so the tracing overhead
  // is measured under the same drift.
  const std::size_t units = std::max<std::size_t>(1, workload.units_per_rep());
  const std::size_t min_reps =
      run.trace ? kMinTracedReps
                : std::max(kMinReps, (kTailWindow + units - 1) / units);
  const auto start = Clock::now();
  while (run.reps.size() < min_reps || since(start) < seconds) {
    if (since(r0) > kRunawaySeconds) {
      run.errors.push_back("stopped early: the time limit was reached");
      ++run.failed;
      break;
    }
    const bool traced = run.trace && run.reps.size() % 2 == 1;
    try {
      Rep rep = workload.rep(traced);
      if (traced) probe_layers(rep, workload.probe_config());
      check(run, rep, *run.reference);
      run.reps.push_back(std::move(rep));
    } catch (const std::exception& e) {
      run.attempted += run.reference->digests.size();
      run.failed += run.reference->digests.size();
      run.errors.push_back(std::string("repetition: ") + e.what());
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Self-test: the digest catches a perturbed result.

int self_test() {
  int failures = 0;
  auto expect = [&](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "self-test FAILED: " << what << "\n";
      ++failures;
    }
  };
  grid::GridConfig config = bench::case1_base();
  config.horizon = 200.0;
  const grid::SimulationResult r = Scenario(config).run();
  const grid::SimulationResult again = Scenario(config).run();
  expect(digest_of(r) == digest_of(again), "same config, same digest");

  grid::SimulationResult g = r;
  g.G_scheduler = std::nextafter(g.G_scheduler, 1e300);
  expect(digest_of(g) != digest_of(r), "a one-ulp change of G is caught");
  grid::SimulationResult m = r;
  m.network_messages += 1;
  expect(digest_of(m) != digest_of(r), "one extra message is caught");
  grid::SimulationResult c = r;
  c.ctrl_updates_coalesced += 1;
  expect(digest_of(c) != digest_of(r), "a control-plane count is caught");
  grid::SimulationResult f = r;
  f.jobs_requeued += 1;
  expect(digest_of(f) != digest_of(r), "a fault count is caught");
  grid::SimulationResult p = r;
  p.p95_response += 1.0;
  expect(digest_of(p) == digest_of(r), "the histogram p95 is not folded");

  core::CaseResult a;
  a.points.push_back(core::ScalePoint{});
  a.points.back().sim = r;
  core::CaseResult b = a;
  b.points.back().tuning.update_interval += 1e-9;
  expect(digest_of(a) != digest_of(b), "a moved enabler point is caught");
  core::CaseResult e = a;
  e.points.back().sim.F = std::nextafter(e.points.back().sim.F, 0.0);
  expect(digest_of(a) != digest_of(e), "a moved tuned E is caught");

  Run run;
  Rep reference;
  reference.digests = {1, 2, 3};
  reference.counts = Counts{};
  reference.counts->add(r);
  Rep same = reference;
  check(run, same, reference);
  expect(run.failed == 0 && run.attempted == 3, "equal outputs pass");
  Rep perturbed = reference;
  perturbed.digests[1] = 7;
  check(run, perturbed, reference);
  expect(run.failed == 1 && run.attempted == 6, "a perturbed output fails");
  Rep recounted = reference;
  recounted.counts->events += 1;
  check(run, recounted, reference);
  expect(run.failed == 2 && run.attempted == 9, "a changed count fails");
  reference.layer["opt.cache_hits"] = 3.0;
  Rep rehit = reference;
  rehit.layer["opt.cache_hits"] = 4.0;
  check(run, rehit, reference);
  expect(run.failed == 3 && run.attempted == 12,
         "a changed cache-hit count fails");

  std::cout << (failures == 0 ? "self-test ok" : "self-test failed") << "\n";
  return failures == 0 ? 0 : 1;
}

int usage() {
  std::cerr << "usage: rmsbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n       rmsbench --self-test\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Run run;
  double seconds = -1.0;
  bool have_seed = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--self-test") return self_test();
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        run.workload = value;
      } else if (arg == "--seed") {
        run.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage();
        run.trace = value == "1";
        have_trace = true;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (run.workload.empty() || !have_seed || !have_trace || !(seconds > 0.0)) {
    return usage();
  }
  std::unique_ptr<Workload> workload = make_workload(run);
  if (!workload) {
    std::cerr << "rmsbench: unknown workload '" << run.workload << "'\n";
    return 2;
  }
  run.lanes = workload->lanes();
  measure(run, *workload, seconds);
  print(run);
  return 0;
}
