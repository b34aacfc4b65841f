#pragma once
// Process-wide memo of settled shortest-path source trees, keyed on a
// 128-bit topology digest (net::graph_digest covers node count and every
// link's endpoint/latency/bandwidth) plus the source node.  Parallel
// session slots, SA restart chains, and per-RMS sweeps all route over
// bit-identical graphs; sharing the trees means each source is settled
// once per process instead of once per GridSystem.
//
// Entries are immutable TreeSnapshot values behind shared_ptr, so
// concurrent readers never observe a mutating Dijkstra frontier.  A
// TreeSnapshot is the same structure-of-arrays tree a Router extends
// (distances, inverse bandwidths, hops, predecessors and the indexed
// frontier heap), so publishing and adopting are plain copies of one
// type.  A router that needs to settle *further* than a snapshot reaches
// clones the snapshot into a private tree and extends that copy (copy-
// on-extend), publishing the deeper state back; publication is
// first-publish-wins with strictly-deeper upgrades, and every snapshot
// agrees on its settled prefix (Dijkstra finalizes in global distance
// order), so which snapshot a reader adopts can never change a route.
//
// The memo is a util::DigestMemo like workload::ArrivalCache:
// byte-budgeted through set_max_bytes (or SCAL_TREE_CACHE_BYTES at first
// use), FIFO eviction, and an oversized snapshot handed back unstored.

#include <array>
#include <cstdint>
#include <memory>
#include <utility>

#include "net/routing.hpp"
#include "util/digest_memo.hpp"

namespace scal::net {

/// 128-bit structural fingerprint of a graph: node count plus every
/// link's (to, latency, bandwidth) in adjacency order.  Two graphs with
/// equal digests route identically, so their source trees are
/// interchangeable.
std::array<std::uint64_t, 2> graph_digest(const Graph& graph);

struct TreeSnapshotBytes {
  std::size_t operator()(const TreeSnapshot& snapshot) const noexcept {
    return snapshot.bytes();
  }
};

/// A later snapshot replaces the resident one only when strictly deeper
/// (more settled nodes); equal depths keep the canonical first entry.
struct StrictlyDeeper {
  bool operator()(const TreeSnapshot& resident,
                  const TreeSnapshot& incoming) const noexcept {
    return incoming.settled_count > resident.settled_count;
  }
};

class SharedTreeCache
    : private util::DigestMemo<std::array<std::uint64_t, 3>, TreeSnapshot,
                               TreeSnapshotBytes, StrictlyDeeper> {
  using Memo = util::DigestMemo<std::array<std::uint64_t, 3>, TreeSnapshot,
                                TreeSnapshotBytes, StrictlyDeeper>;

 public:
  using Key = std::array<std::uint64_t, 2>;  ///< topology digest
  using Memo::Memo;

  /// The process-wide instance every sharing Router consults.  Its byte
  /// budget is SCAL_TREE_CACHE_BYTES (bytes; unset or 0 = unbounded).
  static SharedTreeCache& instance();

  /// The cached snapshot for (topology, src), or null.  Counts a share
  /// or a miss.
  std::shared_ptr<const TreeSnapshot> lookup(const Key& topology,
                                             NodeId src) {
    return Memo::lookup(entry_key(topology, src));
  }

  /// Publish a snapshot for (topology, src); see StrictlyDeeper and
  /// util::DigestMemo::publish for which snapshot ends up canonical.
  std::shared_ptr<const TreeSnapshot> publish(
      const Key& topology, NodeId src,
      std::shared_ptr<const TreeSnapshot> snapshot) {
    return Memo::publish(entry_key(topology, src), std::move(snapshot));
  }

  /// Lookups answered (trees adopted).
  std::uint64_t shares() const { return hits(); }

  using Memo::bytes;
  using Memo::clear;
  using Memo::evictions;
  using Memo::max_bytes;
  using Memo::misses;
  using Memo::publishes;
  using Memo::replacements;
  using Memo::set_max_bytes;
  using Memo::size;

 private:
  static std::array<std::uint64_t, 3> entry_key(const Key& topology,
                                                NodeId src) {
    return {topology[0], topology[1], src};
  }
};

}  // namespace scal::net
