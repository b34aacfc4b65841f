#include "net/routing.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "net/tree_cache.hpp"

namespace scal::net {
namespace {

/// Brute-force Bellman-Ford distances for cross-checking Dijkstra.
std::vector<double> bellman_ford(const Graph& g, NodeId src) {
  std::vector<double> dist(g.node_count(),
                           std::numeric_limits<double>::infinity());
  dist[src] = 0.0;
  for (std::size_t pass = 0; pass + 1 < g.node_count(); ++pass) {
    bool relaxed = false;
    for (NodeId u = 0; u < g.node_count(); ++u) {
      if (dist[u] == std::numeric_limits<double>::infinity()) continue;
      for (const Link& l : g.neighbors(u)) {
        if (dist[u] + l.latency < dist[l.to]) {
          dist[l.to] = dist[u] + l.latency;
          relaxed = true;
        }
      }
    }
    if (!relaxed) break;
  }
  return dist;
}

Graph line_graph() {
  Graph g(4);
  g.add_edge(0, 1, 1.0, 10.0);
  g.add_edge(1, 2, 2.0, 20.0);
  g.add_edge(2, 3, 3.0, 30.0);
  return g;
}

TEST(Router, LineGraphAccumulatesLatencyAndBandwidth) {
  const Graph g = line_graph();
  Router router(g);
  const RouteInfo info = router.route(0, 3);
  EXPECT_TRUE(info.reachable);
  EXPECT_DOUBLE_EQ(info.latency, 6.0);
  EXPECT_DOUBLE_EQ(info.inv_bandwidth, 1.0 / 10 + 1.0 / 20 + 1.0 / 30);
  EXPECT_EQ(info.hops, 3u);
}

TEST(Router, DelayIncludesTransmission) {
  const Graph g = line_graph();
  Router router(g);
  const double d = router.delay(0, 3, 60.0);
  EXPECT_DOUBLE_EQ(d, 6.0 + 60.0 * (1.0 / 10 + 1.0 / 20 + 1.0 / 30));
}

TEST(Router, SelfDelayIsZero) {
  const Graph g = line_graph();
  Router router(g);
  EXPECT_DOUBLE_EQ(router.delay(2, 2, 100.0), 0.0);
}

TEST(Router, PicksShorterOfTwoPaths) {
  Graph g(3);
  g.add_edge(0, 1, 1.0, 1.0);
  g.add_edge(1, 2, 1.0, 1.0);
  g.add_edge(0, 2, 5.0, 1.0);  // direct but slower
  Router router(g);
  const RouteInfo info = router.route(0, 2);
  EXPECT_DOUBLE_EQ(info.latency, 2.0);
  EXPECT_EQ(info.hops, 2u);
}

TEST(Router, PathReconstruction) {
  const Graph g = line_graph();
  Router router(g);
  EXPECT_EQ(router.path(0, 3), (std::vector<NodeId>{0, 1, 2, 3}));
  EXPECT_EQ(router.path(3, 0), (std::vector<NodeId>{3, 2, 1, 0}));
  EXPECT_EQ(router.path(1, 1), (std::vector<NodeId>{1}));
}

TEST(Router, UnreachableDetected) {
  Graph g(3);
  g.add_edge(0, 1, 1.0, 1.0);
  Router router(g);
  EXPECT_FALSE(router.route(0, 2).reachable);
  EXPECT_TRUE(router.path(0, 2).empty());
  EXPECT_THROW(router.delay(0, 2, 1.0), std::runtime_error);
}

TEST(Router, MatchesBellmanFordOnRandomTopology) {
  TopologyConfig config;
  config.nodes = 120;
  util::RandomStream rng(42, "routing-test");
  const Graph g = generate_topology(config, rng);
  Router router(g);
  for (const NodeId src : {NodeId{0}, NodeId{17}, NodeId{119}}) {
    const auto expect = bellman_ford(g, src);
    for (NodeId dst = 0; dst < g.node_count(); ++dst) {
      EXPECT_NEAR(router.route(src, dst).latency, expect[dst], 1e-9)
          << src << "->" << dst;
    }
  }
}

TEST(Router, CachesSourceTrees) {
  const Graph g = line_graph();
  Router router(g);
  EXPECT_EQ(router.cached_sources(), 0u);
  router.route(0, 3);
  router.route(0, 1);
  EXPECT_EQ(router.cached_sources(), 1u);
  router.route(2, 0);
  EXPECT_EQ(router.cached_sources(), 2u);
  router.clear_cache();
  EXPECT_EQ(router.cached_sources(), 0u);
}

TEST(Router, RejectsOutOfRange) {
  const Graph g = line_graph();
  Router router(g);
  EXPECT_THROW(router.route(0, 99), std::out_of_range);
  EXPECT_THROW(router.route(99, 0), std::out_of_range);
}

TEST(Router, ClearCacheMidRunIsDeterministic) {
  // The schedulers re-query the same pairs every update interval; a
  // cache flush in between (e.g. from a topology-aware tuner) must
  // reproduce byte-identical delays when the trees rebuild lazily.
  TopologyConfig config;
  config.nodes = 90;
  util::RandomStream rng(7, "routing-clear-test");
  const Graph g = generate_topology(config, rng);
  Router router(g);
  std::vector<double> before;
  for (NodeId src = 0; src < g.node_count(); src += 3) {
    for (NodeId dst = 1; dst < g.node_count(); dst += 11) {
      if (src != dst) before.push_back(router.delay(src, dst, 2.0));
    }
  }
  router.clear_cache();
  EXPECT_EQ(router.cached_sources(), 0u);
  std::size_t i = 0;
  for (NodeId src = 0; src < g.node_count(); src += 3) {
    for (NodeId dst = 1; dst < g.node_count(); dst += 11) {
      if (src != dst) {
        EXPECT_DOUBLE_EQ(router.delay(src, dst, 2.0), before[i++])
            << src << "->" << dst;
      }
    }
  }
}

TEST(Router, LazySettlingMatchesFullSearchInAnyQueryOrder) {
  // The per-source tree settles only as far as each query needs; the
  // settled prefix must equal the full Dijkstra run no matter the order
  // destinations are asked in (near-first, far-first, interleaved).
  TopologyConfig config;
  config.nodes = 120;
  util::RandomStream rng(42, "routing-test");  // same graph as above
  const Graph g = generate_topology(config, rng);

  Router eager(g);
  std::vector<double> full(g.node_count());
  for (NodeId dst = 0; dst < g.node_count(); ++dst) {
    full[dst] = eager.route(17, dst).latency;  // one pass settles all
  }

  Router lazy(g);
  // Far-first, then a descending sweep, then re-query everything.
  (void)lazy.route(17, 119);
  for (NodeId dst = g.node_count(); dst-- > 0;) {
    EXPECT_NEAR(lazy.route(17, dst).latency, full[dst], 1e-12)
        << "17->" << dst;
  }
  for (NodeId dst = 0; dst < g.node_count(); ++dst) {
    EXPECT_NEAR(lazy.route(17, dst).latency, full[dst], 1e-12);
  }
}

TEST(Router, UnreachableThrowAfterPartialSettleAndCacheStaysUsable) {
  // Two components: queries inside the source's component settle
  // lazily; an unreachable destination then exhausts the frontier and
  // throws, and the exhausted tree still answers reachable queries.
  Graph g(5);
  g.add_edge(0, 1, 1.0, 1.0);
  g.add_edge(1, 2, 1.0, 1.0);
  g.add_edge(3, 4, 1.0, 1.0);  // disconnected island
  Router router(g);
  EXPECT_DOUBLE_EQ(router.delay(0, 1, 0.0), 1.0);
  EXPECT_THROW(router.delay(0, 4, 1.0), std::runtime_error);
  EXPECT_THROW(router.delay(0, 3, 1.0), std::runtime_error);
  EXPECT_DOUBLE_EQ(router.delay(0, 2, 0.0), 2.0);
  EXPECT_EQ(router.path(0, 2), (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(router.cached_sources(), 1u);
}

/// The router's previous search, kept here as the reference: a lazy
/// std::push_heap frontier of (distance, node) pairs with stale
/// duplicates, settling per source only as far as each query needs.
class LazyHeapReference {
 public:
  explicit LazyHeapReference(const Graph& graph) : graph_(&graph) {}

  RouteInfo route(NodeId src, NodeId dst) {
    Tree& tree = settle(src, dst);
    return tree.info[dst];
  }

  std::vector<NodeId> path(NodeId src, NodeId dst) {
    Tree& tree = settle(src, dst);
    if (!tree.info[dst].reachable) return {};
    std::vector<NodeId> p;
    for (NodeId n = dst; n != kInvalidNode; n = tree.predecessor[n]) {
      p.push_back(n);
      if (n == src) break;
    }
    std::reverse(p.begin(), p.end());
    return p;
  }

 private:
  struct Tree {
    std::vector<RouteInfo> info;
    std::vector<NodeId> predecessor;
    std::vector<double> dist;
    std::vector<char> settled;
    std::vector<std::pair<double, NodeId>> frontier;
    bool exhausted = false;
  };

  Tree& settle(NodeId src, NodeId dst) {
    const std::size_t n = graph_->node_count();
    if (trees_.size() != n) trees_.resize(n);
    if (trees_[src] == nullptr) {
      auto tree = std::make_unique<Tree>();
      tree->info.assign(n, RouteInfo{});
      tree->predecessor.assign(n, kInvalidNode);
      tree->dist.assign(n, std::numeric_limits<double>::infinity());
      tree->settled.assign(n, 0);
      tree->dist[src] = 0.0;
      tree->info[src].reachable = true;
      tree->frontier.emplace_back(0.0, src);
      trees_[src] = std::move(tree);
    }
    Tree& tree = *trees_[src];
    if (tree.settled[dst] != 0 || tree.exhausted) return tree;
    auto& heap = tree.frontier;
    const std::greater<> cmp;
    bool settled_dst = false;
    while (!heap.empty()) {
      const auto [d, u] = heap.front();
      std::pop_heap(heap.begin(), heap.end(), cmp);
      heap.pop_back();
      if (d > tree.dist[u]) continue;  // stale entry
      tree.settled[u] = 1;
      for (const Link& l : graph_->neighbors(u)) {
        const double nd = d + l.latency;
        if (nd < tree.dist[l.to]) {
          tree.dist[l.to] = nd;
          RouteInfo& info = tree.info[l.to];
          info.reachable = true;
          info.latency = tree.info[u].latency + l.latency;
          info.inv_bandwidth = tree.info[u].inv_bandwidth + 1.0 / l.bandwidth;
          info.hops = tree.info[u].hops + 1;
          tree.predecessor[l.to] = u;
          heap.emplace_back(nd, l.to);
          std::push_heap(heap.begin(), heap.end(), cmp);
        }
      }
      if (u == dst) {
        settled_dst = true;
        break;
      }
    }
    if (!settled_dst) tree.exhausted = true;
    return tree;
  }

  const Graph* graph_;
  std::vector<std::unique_ptr<Tree>> trees_;
};

void expect_bit_equal(const RouteInfo& want, const RouteInfo& got,
                      const std::string& where) {
  EXPECT_EQ(want.reachable, got.reachable) << where;
  EXPECT_EQ(want.hops, got.hops) << where;
  // Bitwise: the same settles in the same order give the same sums.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.latency),
            std::bit_cast<std::uint64_t>(got.latency))
      << where;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(want.inv_bandwidth),
            std::bit_cast<std::uint64_t>(got.inv_bandwidth))
      << where;
}

struct NamedGraph {
  std::string name;
  Graph graph;
};

std::vector<NamedGraph> differential_graphs() {
  std::vector<NamedGraph> out;
  auto generated = [](TopologyKind kind, std::size_t nodes, double latency_min,
                      double latency_max, std::uint64_t seed) {
    TopologyConfig config;
    config.kind = kind;
    config.nodes = nodes;
    config.latency_min = latency_min;
    config.latency_max = latency_max;
    util::RandomStream rng(seed, "routing-differential");
    return generate_topology(config, rng);
  };
  out.push_back({"pref-attach", generated(TopologyKind::kPreferentialAttachment,
                                          150, 0.1, 0.5, 3)});
  out.push_back({"waxman", generated(TopologyKind::kWaxman, 90, 0.1, 0.5, 4)});
  // Equal latencies: many nodes at exactly equal distance, so the
  // (distance, node) tie-break decides the settle order.
  out.push_back({"ring-lattice-equal",
                 generated(TopologyKind::kRingLattice, 60, 1.0, 1.0, 5)});
  Graph star(25);
  for (NodeId leaf = 1; leaf < 25; ++leaf) star.add_edge(0, leaf, 0.5, 10.0);
  out.push_back({"star-equal", std::move(star)});
  // A zero-latency edge: equal distances across an edge.
  Graph zero(6);
  zero.add_edge(0, 1, 1.0, 5.0);
  zero.add_edge(1, 2, 0.0, 7.0);
  zero.add_edge(0, 3, 1.0, 3.0);
  zero.add_edge(3, 2, 0.0, 2.0);
  zero.add_edge(2, 4, 2.0, 1.0);
  zero.add_edge(4, 5, 0.0, 9.0);
  out.push_back({"zero-latency", std::move(zero)});
  // Two components with equal latencies inside each.
  Graph split(8);
  split.add_edge(0, 1, 1.0, 1.0);
  split.add_edge(1, 2, 1.0, 2.0);
  split.add_edge(0, 2, 2.0, 4.0);
  split.add_edge(3, 2, 1.0, 1.0);
  split.add_edge(5, 6, 1.0, 1.0);
  split.add_edge(6, 7, 1.0, 1.0);
  split.add_edge(5, 7, 2.0, 1.0);
  out.push_back({"disconnected", std::move(split)});
  return out;
}

/// Query orders: near-first (ascending reference distance), far-first
/// (descending), and everything repeated.
std::vector<NodeId> query_order(LazyHeapReference& full, NodeId src,
                                NodeId n, bool far_first) {
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[v] = v;
  std::vector<double> dist(n);
  for (NodeId v = 0; v < n; ++v) {
    const RouteInfo info = full.route(src, v);
    dist[v] = info.reachable ? info.latency
                             : std::numeric_limits<double>::infinity();
  }
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return far_first ? dist[a] > dist[b] : dist[a] < dist[b];
  });
  return order;
}

TEST(Router, BitEqualToLazyHeapSearchOnEveryGraphAndQueryOrder) {
  for (NamedGraph& named : differential_graphs()) {
    const Graph& g = named.graph;
    const auto n = static_cast<NodeId>(g.node_count());
    LazyHeapReference full(g);
    for (const bool far_first : {false, true}) {
      Router router(g);
      LazyHeapReference lazy(g);
      for (NodeId src = 0; src < n; ++src) {
        const auto order = query_order(full, src, n, far_first);
        for (int pass = 0; pass < 2; ++pass) {  // the second pass repeats
          for (const NodeId dst : order) {
            const std::string where =
                named.name + (far_first ? " far-first " : " near-first ") +
                std::to_string(src) + "->" + std::to_string(dst);
            expect_bit_equal(lazy.route(src, dst), router.route(src, dst),
                             where);
            EXPECT_EQ(lazy.path(src, dst), router.path(src, dst)) << where;
          }
        }
      }
    }
  }
}

TEST(Router, SharedAdoptExtendPublishStaysBitEqual) {
  // adopt -> extend -> publish through the SharedTreeCache: a writer
  // publishes shallow trees, a reader adopts them and extends privately
  // (publishing the deeper state), and a third router adopts that.
  SharedTreeCache::instance().clear();
  for (NamedGraph& named : differential_graphs()) {
    const Graph& g = named.graph;
    const auto n = static_cast<NodeId>(g.node_count());
    const auto key = graph_digest(g);
    LazyHeapReference full(g);
    Router writer(g);
    Router reader(g);
    Router late(g);
    writer.enable_tree_sharing(key);
    reader.enable_tree_sharing(key);
    late.enable_tree_sharing(key);
    for (NodeId src = 0; src < n; ++src) {
      const auto near = query_order(full, src, n, false);
      const NodeId nearest = near[std::min<std::size_t>(1, n - 1)];
      expect_bit_equal(full.route(src, nearest), writer.route(src, nearest),
                       named.name + " writer");
      for (const NodeId dst : query_order(full, src, n, true)) {
        const std::string where = named.name + " " + std::to_string(src) +
                                  "->" + std::to_string(dst);
        expect_bit_equal(full.route(src, dst), reader.route(src, dst),
                         "reader " + where);
        EXPECT_EQ(full.path(src, dst), reader.path(src, dst)) << where;
      }
      for (const NodeId dst : near) {
        expect_bit_equal(full.route(src, dst), late.route(src, dst),
                         "late " + named.name);
        EXPECT_EQ(full.path(src, dst), late.path(src, dst)) << named.name;
      }
    }
    EXPECT_GT(reader.owned_sources(), 0u) << named.name;  // extended
    EXPECT_EQ(late.owned_sources(), 0u) << named.name;    // adopted only
  }
  SharedTreeCache::instance().clear();
}

}  // namespace
}  // namespace scal::net
