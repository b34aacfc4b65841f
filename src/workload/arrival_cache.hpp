#pragma once
// Process-wide memo of generated arrival streams, keyed on a 128-bit
// workload digest (grid::workload_digest covers every stream-shaping
// input: workload config, source spec, seed, horizon, cluster count).
// Structural rebuilds, session pools, and parallel tuner lanes all
// replay the same streams; memoizing them takes workload synthesis off
// the rebuild critical path.  Entries are immutable shared vectors, so
// concurrent consumers alias one allocation safely; racing generators
// produce bit-identical vectors and the first publish becomes canonical.
//
// The memo is a util::DigestMemo: byte-budgeted through set_max_bytes
// (or SCAL_ARRIVAL_CACHE_BYTES at first use), FIFO eviction, and an
// oversized stream handed back unstored.  One-shot streaming runs bypass
// the store entirely (cached_stream with reusable=false) and only count
// the skip.

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "util/digest_memo.hpp"
#include "workload/job.hpp"

namespace scal::workload {

struct JobStreamBytes {
  std::size_t operator()(const std::vector<Job>& jobs) const noexcept {
    return jobs.size() * sizeof(Job);
  }
};

class ArrivalCache
    : private util::DigestMemo<std::array<std::uint64_t, 2>,
                               std::vector<Job>, JobStreamBytes> {
  using Memo = util::DigestMemo<std::array<std::uint64_t, 2>,
                                std::vector<Job>, JobStreamBytes>;

 public:
  using Key = std::array<std::uint64_t, 2>;
  using Memo::Memo;

  /// The process-wide instance every GridSystem consults.  Its byte
  /// budget is SCAL_ARRIVAL_CACHE_BYTES (bytes; unset or 0 = unbounded).
  static ArrivalCache& instance();

  using Memo::bytes;
  using Memo::evictions;
  using Memo::hits;
  using Memo::lookup;
  using Memo::max_bytes;
  using Memo::misses;
  using Memo::publish;
  using Memo::set_max_bytes;
  using Memo::size;

  /// Stores skipped by one-shot streaming runs (cached_stream with
  /// reusable=false).
  std::uint64_t store_skips() const {
    return store_skips_.load(std::memory_order_relaxed);
  }
  void count_store_skip() {
    store_skips_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Drop every entry and zero the counters (tests and benches; the
  /// simulation never needs it).  The byte budget is kept.
  void clear();

 private:
  std::atomic<std::uint64_t> store_skips_{0};
};

}  // namespace scal::workload
