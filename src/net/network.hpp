#pragma once
// The message fabric: delivers payloads between graph nodes with the
// routed end-to-end delay.  The RMS "network link delay" scaling enabler
// from the paper (Tables 2-5) is modeled as a multiplicative delay scale:
// tuning it below 1.0 represents provisioning faster control links and is
// penalized by cost elsewhere (the tuner trades it against efficiency).

#include <cstdint>
#include <optional>

#include "net/routing.hpp"
#include "obs/phase_profiler.hpp"
#include "sim/entity.hpp"
#include "util/rng.hpp"

namespace scal::net {

/// Control-message fault model (fault subsystem, `net:` in a fault
/// spec): per-message drop / duplication / extra-delay decisions on a
/// dedicated stream.  Applies to the unreliable path only.
struct NetFaults {
  double drop = 0.0;               ///< independent drop probability
  double duplicate = 0.0;          ///< probability of a second delivery
  double delay_probability = 0.0;  ///< probability of extra latency
  double delay_mean = 0.0;         ///< mean of the Exp extra latency
  bool any() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || delay_probability > 0.0;
  }
};

class Network : public sim::Entity {
 public:
  Network(sim::Simulator& sim, sim::EntityId id, const Graph& graph)
      : Entity(sim, id, "network"), router_(graph) {}

  /// Deliver `on_arrival` after the routed delay for a message of `size`
  /// units from `src` to `dst`.  src == dst delivers after zero delay
  /// (still via the event queue, preserving causal ordering).
  void send(NodeId src, NodeId dst, double size,
            sim::EventFn on_arrival);

  /// Like send(), but subject to the message faults armed by
  /// set_faults().  A dropped message simply never arrives; protocols
  /// must tolerate that via timeouts/idempotence.
  void send_unreliable(NodeId src, NodeId dst, double size,
                       sim::EventFn on_arrival);

  /// Enable the fault-subsystem message model.  Each probability is in
  /// [0, 1).  Each unreliable message draws, in fixed order and only for
  /// the classes enabled, drop -> extra delay -> duplication, so
  /// disabled classes consume no draws; the stream keeps runs
  /// deterministic.
  void set_faults(const NetFaults& faults, util::RandomStream rng);
  std::uint64_t messages_dropped() const noexcept { return dropped_; }
  std::uint64_t messages_duplicated() const noexcept { return duplicated_; }
  std::uint64_t messages_delayed() const noexcept { return delayed_; }

  /// One-way delay this fabric would charge right now.
  double predict_delay(NodeId src, NodeId dst, double size) const;

  void set_delay_scale(double scale);
  double delay_scale() const noexcept { return delay_scale_; }

  const Router& router() const noexcept { return router_; }

  /// Opt the router into the process-wide shared source-tree cache
  /// under `key` (net::graph_digest of this fabric's graph).  Routes
  /// are bit-identical shared or not; see net/tree_cache.hpp.
  void enable_tree_sharing(const std::array<std::uint64_t, 2>& key) noexcept {
    router_.enable_tree_sharing(key);
  }

  /// Attach the (optional) phase profiler: forwarded to the router, so
  /// the phase times shortest-path settling work (not per-message
  /// bookkeeping — warm route lookups are a few ns and would drown in
  /// timer overhead).  Purely observational.
  void attach_profiler(obs::PhaseProfiler* profiler,
                       obs::PhaseId route_phase) noexcept {
    router_.attach_profiler(profiler, route_phase);
  }

  std::uint64_t messages_sent() const noexcept { return messages_; }
  double bytes_sent() const noexcept { return bytes_; }

  /// Zero the traffic and fault counters for a fresh run over the same
  /// fabric (reusable-system path).  The router's lazily settled
  /// shortest-path trees are deliberately kept warm: routes depend only
  /// on the immutable graph (the delay-scale enabler applies at query
  /// time), and re-settling them dominates the cost of a cold run.  The
  /// caller re-arms set_faults with a fresh stream so the
  /// stochastic layers replay exactly like a fresh build.
  void reset_counters() noexcept {
    messages_ = 0;
    bytes_ = 0.0;
    dropped_ = 0;
    duplicated_ = 0;
    delayed_ = 0;
  }

 private:
  Router router_;
  double delay_scale_ = 1.0;
  std::uint64_t messages_ = 0;
  double bytes_ = 0.0;
  std::uint64_t dropped_ = 0;
  NetFaults faults_;
  std::optional<util::RandomStream> fault_rng_;
  std::uint64_t duplicated_ = 0;
  std::uint64_t delayed_ = 0;
};

}  // namespace scal::net
