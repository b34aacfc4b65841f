#include "net/routing.hpp"

#include <algorithm>
#include <stdexcept>

#include "net/tree_cache.hpp"

namespace scal::net {

TreeSnapshot::TreeSnapshot(std::size_t nodes, NodeId src)
    : dist(nodes, kUnreached), via(nodes) {
  frontier.resize_ids(nodes);
  dist[src] = 0.0;
  frontier.push(0.0, src);
}

void Router::ensure_slots() const {
  const std::size_t n = node_count();
  if (cache_.size() != n) cache_.resize(n);
  if (sharing_ && shared_.size() != n) shared_.resize(n);
  if (arc_begin_.empty()) {
    // First query: flatten the graph.  Deferred from construction so
    // that building a system that never routes costs nothing here.
    arc_begin_.reserve(n + 1);
    arcs_.reserve(2 * graph_->edge_count());
    arc_begin_.push_back(0);
    for (NodeId u = 0; u < n; ++u) {
      for (const Link& l : graph_->neighbors(u)) {
        arcs_.push_back(Arc{l.latency, 1.0 / l.bandwidth, l.to});
      }
      arc_begin_.push_back(static_cast<std::uint32_t>(arcs_.size()));
    }
  }
}

const TreeSnapshot* Router::adopted_for(NodeId src, NodeId dst) const {
  if (src >= node_count()) {
    throw std::out_of_range("Router: source out of range");
  }
  if (cache_[src] != nullptr) return nullptr;  // owned state is deeper
  if (shared_[src] == nullptr) {
    auto snapshot = SharedTreeCache::instance().lookup(topology_key_, src);
    if (snapshot == nullptr) return nullptr;
    shared_[src] = std::move(snapshot);
    ++adopted_;
  }
  const TreeSnapshot* snapshot = shared_[src].get();
  if (snapshot->answers(dst)) return snapshot;
  return nullptr;  // too shallow for dst: caller clones and extends
}

TreeSnapshot& Router::tree_for(NodeId src) const {
  if (src >= node_count()) {
    throw std::out_of_range("Router: source out of range");
  }
  std::unique_ptr<TreeSnapshot>& slot = cache_[src];
  if (slot != nullptr) return *slot;
  if (sharing_ && shared_[src] != nullptr) {
    // Copy-on-extend: resume from the adopted snapshot's frontier in a
    // private copy; the shared state is never mutated.
    slot = std::make_unique<TreeSnapshot>(*shared_[src]);
    shared_[src] = nullptr;
    --adopted_;
  } else {
    slot = std::make_unique<TreeSnapshot>(node_count(), src);
  }
  ++owned_;
  return *slot;
}

void Router::settle(NodeId src, TreeSnapshot& tree, NodeId dst) const {
  if (tree.answers(dst)) return;
  obs::PhaseProfiler::Scope scope(profiler_, route_phase_);
  TreeSnapshot::Frontier& frontier = tree.frontier;
  bool settled_dst = false;
  while (!frontier.empty()) {
    const NodeId u = TreeSnapshot::Frontier::id_of(frontier.pop_min());
    ++tree.settled_count;
    const double du = tree.dist[u];
    const double bu = tree.via[u].inv_bandwidth;
    const std::uint32_t hops = tree.via[u].hops + 1;
    const Arc* const end = arcs_.data() + arc_begin_[u + 1];
    for (const Arc* arc = arcs_.data() + arc_begin_[u]; arc != end; ++arc) {
      const NodeId v = arc->to;
      const double nd = du + arc->latency;
      // Strict improvement keeps the tree deterministic given adjacency
      // order (ties resolve to the first-relaxed predecessor).  A
      // settled node never improves: nd >= du >= its distance.
      if (nd < tree.dist[v]) {
        const bool queued = tree.reached(v);
        tree.dist[v] = nd;
        tree.via[v] = TreeSnapshot::Via{bu + arc->inv_bandwidth, hops, u};
        if (queued) {
          frontier.decrease(v, nd);
        } else {
          frontier.push(nd, v);
        }
      }
    }
    if (u == dst) {
      settled_dst = true;
      break;
    }
  }
  if (!settled_dst) tree.exhausted = true;
  // Publish the deeper state so sibling routers adopt instead of
  // re-settling.  Per extension event (rare), not per query.
  if (sharing_) {
    SharedTreeCache::instance().publish(
        topology_key_, src, std::make_shared<const TreeSnapshot>(tree));
  }
}

const TreeSnapshot& Router::answering(NodeId src, NodeId dst) const {
  if (dst >= node_count()) {
    throw std::out_of_range("Router: destination out of range");
  }
  ensure_slots();
  if (sharing_) {
    if (const TreeSnapshot* snapshot = adopted_for(src, dst)) {
      return *snapshot;
    }
  }
  TreeSnapshot& tree = tree_for(src);
  settle(src, tree, dst);
  return tree;
}

RouteInfo Router::route(NodeId src, NodeId dst) const {
  return answering(src, dst).route(dst);
}

double Router::delay(NodeId src, NodeId dst, double size) const {
  if (src == dst) return 0.0;
  const TreeSnapshot& tree = answering(src, dst);
  if (!tree.reached(dst)) {
    throw std::runtime_error("Router::delay: destination unreachable");
  }
  return tree.dist[dst] + size * tree.via[dst].inv_bandwidth;
}

std::vector<NodeId> Router::path(NodeId src, NodeId dst) const {
  const TreeSnapshot& tree = answering(src, dst);
  if (!tree.reached(dst)) return {};
  std::vector<NodeId> p;
  for (NodeId n = dst; n != kInvalidNode; n = tree.via[n].predecessor) {
    p.push_back(n);
    if (n == src) break;
  }
  std::reverse(p.begin(), p.end());
  return p;
}

}  // namespace scal::net
