#include "net/tree_cache.hpp"

#include "util/mix128.hpp"

namespace scal::net {

std::array<std::uint64_t, 2> graph_digest(const Graph& graph) {
  util::Mix128 mix;
  const std::size_t n = graph.node_count();
  mix.word(n);
  for (std::size_t u = 0; u < n; ++u) {
    const auto links = graph.neighbors(static_cast<NodeId>(u));
    mix.word(links.size());
    for (const Link& l : links) {
      mix.word(l.to);
      mix.real(l.latency);
      mix.real(l.bandwidth);
    }
  }
  return mix.finish();
}

SharedTreeCache& SharedTreeCache::instance() {
  static SharedTreeCache cache(env_budget("SCAL_TREE_CACHE_BYTES"));
  return cache;
}

}  // namespace scal::net
