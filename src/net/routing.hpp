#pragma once
// OSPF-like routing: link-state shortest paths by cumulative link latency
// (Dijkstra), computed per source on demand and cached.  Along the chosen
// path we accumulate both total propagation latency and total inverse
// bandwidth, so an end-to-end message delay is
//     delay = sum(latency) + size * sum(1/bandwidth).
//
// Layout: on its first query a router flattens its graph into a CSR arc
// array with 1/bandwidth precomputed.  A source's tree is one structure
// of arrays (TreeSnapshot) that serves both as a router's private,
// growing tree and as the immutable snapshot shared through
// net::SharedTreeCache.  Its frontier is a util::IndexedHeap keyed on
// (distance, node) with decrease-key, so every reached node is queued at
// most once.

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "net/graph.hpp"
#include "obs/phase_profiler.hpp"
#include "util/indexed_heap.hpp"

namespace scal::net {

struct RouteInfo {
  double latency = 0.0;         ///< sum of link latencies on the path
  double inv_bandwidth = 0.0;   ///< sum of 1/bandwidth on the path
  std::uint32_t hops = 0;
  bool reachable = false;
};

/// One source's resumable shortest-path tree.  Most sources only ever
/// query a couple of nearby destinations (a resource talks to its
/// estimator, an estimator to its scheduler), so the search settles
/// nodes lazily — only until the queried destination is final — and
/// resumes from the saved frontier when a later query reaches further.
/// The settled prefix is identical to what a full run would produce
/// (Dijkstra finalizes in global (distance, node) order), so laziness
/// never changes a route.
///
/// A router owns the tree while it extends it; published copies are
/// shared read-only across routers via net::SharedTreeCache, and a
/// router that needs a deeper settle clones the snapshot into a private
/// tree and extends the copy (copy-on-extend), so readers never observe
/// a mutating frontier.  Every snapshot of one (graph, src) agrees on its
/// settled prefix, so adopting any of them is route-preserving.
struct TreeSnapshot {
  /// Queued (reached, unsettled) nodes by (distance bits, node); also
  /// holds each node's heap position.
  using Frontier = util::IndexedHeap<32>;
  static constexpr double kUnreached =
      std::numeric_limits<double>::infinity();

  /// The rest of a node's route, written together on each improvement.
  /// Kept apart from `dist`, which every relaxation reads; one record
  /// instead of three arrays also means fewer allocations per tree.
  struct Via {
    double inv_bandwidth = 0.0;  ///< sum of 1/bandwidth on the path
    std::uint32_t hops = 0;
    NodeId predecessor = kInvalidNode;  ///< for path reconstruction
  };

  std::vector<double> dist;  ///< route latency; +inf if unreached
  std::vector<Via> via;
  Frontier frontier;
  std::size_t settled_count = 0;
  bool exhausted = false;  ///< frontier drained: every reachable node settled

  TreeSnapshot() = default;
  /// A fresh tree over `nodes` nodes with only `src` queued.
  TreeSnapshot(std::size_t nodes, NodeId src);

  bool reached(NodeId v) const noexcept { return dist[v] != kUnreached; }
  bool settled(NodeId v) const noexcept {
    return reached(v) && !frontier.contains(v);
  }
  /// True if the tree's route to `dst` is final.
  bool answers(NodeId dst) const noexcept {
    return exhausted || settled(dst);
  }
  RouteInfo route(NodeId v) const noexcept {
    if (!reached(v)) return RouteInfo{};
    return RouteInfo{dist[v], via[v].inv_bandwidth, via[v].hops, true};
  }

  /// Approximate resident payload, for the shared cache's byte budget.
  std::size_t bytes() const noexcept {
    return dist.capacity() * sizeof(double) + via.capacity() * sizeof(Via) +
           frontier.bytes();
  }
};

class Router {
 public:
  /// The router flattens `graph` into its arc array on the first query;
  /// the graph must not change after that.
  explicit Router(const Graph& graph) : graph_(&graph) {}

  /// Route lookup; computes and caches the source's full shortest-path
  /// tree on first use.
  RouteInfo route(NodeId src, NodeId dst) const;

  /// End-to-end one-way delay for a message of `size` units.
  /// Throws if dst is unreachable.
  double delay(NodeId src, NodeId dst, double size) const;

  /// Shortest path (sequence of nodes, src first); empty if unreachable.
  std::vector<NodeId> path(NodeId src, NodeId dst) const;

  /// Source trees resident in this router (owned + adopted).
  std::size_t cached_sources() const noexcept { return owned_ + adopted_; }
  /// Trees this router settled (and owns) itself.
  std::size_t owned_sources() const noexcept { return owned_; }
  /// Trees adopted read-only from the shared cache.
  std::size_t shared_sources() const noexcept { return adopted_; }

  /// Drop this router's view of every tree.  Owned trees are freed;
  /// adopted snapshots are *detached* (the shared_ptr is released, the
  /// shared cache and its other readers are never touched).  Sharing
  /// stays enabled, so later queries re-adopt.
  void clear_cache() const {
    cache_.clear();
    shared_.clear();
    owned_ = 0;
    adopted_ = 0;
  }

  /// Opt into the process-wide SharedTreeCache under this topology key
  /// (net::graph_digest of the graph this router serves).  Purely a
  /// wall-clock optimization: adopted snapshots return bit-identical
  /// routes, but profiler `net.route` scope counts drop for queries a
  /// shared tree already answers, so instrumented runs leave it off.
  void enable_tree_sharing(const std::array<std::uint64_t, 2>& key) noexcept {
    sharing_ = true;
    topology_key_ = key;
  }
  bool tree_sharing() const noexcept { return sharing_; }

  /// Attach the (optional) phase profiler: shortest-path settling work
  /// (the incremental Dijkstra) runs inside the given phase.  Warm
  /// queries — the overwhelming majority — pay only the existing
  /// settled test, so instrumentation stays off the hot path.  The
  /// scope count is the number of queries that extended a tree, a pure
  /// function of the query sequence.
  void attach_profiler(obs::PhaseProfiler* profiler,
                       obs::PhaseId route_phase) noexcept {
    profiler_ = profiler;
    route_phase_ = route_phase;
  }

 private:
  /// One direction of a link, with its inverse bandwidth precomputed.
  struct Arc {
    double latency;
    double inv_bandwidth;
    NodeId to;
  };

  std::size_t node_count() const noexcept { return graph_->node_count(); }
  /// The tree whose route to dst is final: an adopted snapshot that
  /// reaches far enough, or the owned tree settled up to dst.
  const TreeSnapshot& answering(NodeId src, NodeId dst) const;
  /// The owned tree for src, creating (or cloning the adopted snapshot
  /// of) it on first need.
  TreeSnapshot& tree_for(NodeId src) const;
  /// Run the tree's Dijkstra until `dst` is settled (or the frontier
  /// empties, proving unreachability); publishes the deeper state when
  /// sharing is on.
  void settle(NodeId src, TreeSnapshot& tree, NodeId dst) const;
  /// The adopted snapshot that can answer (src, dst), or null (also
  /// null when an owned tree exists — owned state is always at least
  /// as deep).  Attempts adoption from the shared cache on first touch.
  const TreeSnapshot* adopted_for(NodeId src, NodeId dst) const;
  void ensure_slots() const;

  const Graph* graph_;
  // The graph in CSR form, built by the first query: node u's arcs are
  // arcs_[arc_begin_[u] .. arc_begin_[u + 1]), in adjacency order.
  mutable std::vector<std::uint32_t> arc_begin_;
  mutable std::vector<Arc> arcs_;
  // Flat per-source cache indexed by node id: the schedulers query the
  // same (src, dst) pairs every update interval, so the hot path is a
  // null test + two vector indexes instead of a hash lookup.
  mutable std::vector<std::unique_ptr<TreeSnapshot>> cache_;
  // Adopted read-only snapshots, same indexing.  A source has an owned
  // tree, an adopted snapshot, or neither — never both (cloning into an
  // owned tree releases the adopted slot).
  mutable std::vector<std::shared_ptr<const TreeSnapshot>> shared_;
  mutable std::size_t owned_ = 0;
  mutable std::size_t adopted_ = 0;
  bool sharing_ = false;
  std::array<std::uint64_t, 2> topology_key_{};
  obs::PhaseProfiler* profiler_ = nullptr;
  obs::PhaseId route_phase_ = 0;
};

}  // namespace scal::net
