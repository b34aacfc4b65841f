// util::DigestMemo, the memo behind workload::ArrivalCache and
// net::SharedTreeCache: lookup/publish semantics, the replace predicate,
// the byte budget's FIFO eviction and oversized rule, counters, and
// concurrent use.  Cache-specific behaviour (deeper-snapshot upgrades
// through the Router, the cached_stream store skip) stays with the
// caches' own tests.

#include "util/digest_memo.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

namespace scal::util {
namespace {

using Key = std::array<std::uint64_t, 2>;

struct Blob {
  std::size_t bytes = 0;
  std::uint64_t depth = 0;
};

struct BlobBytes {
  std::size_t operator()(const Blob& blob) const noexcept {
    return blob.bytes;
  }
};

struct Deeper {
  bool operator()(const Blob& resident, const Blob& incoming) const noexcept {
    return incoming.depth > resident.depth;
  }
};

using Memo = DigestMemo<Key, Blob, BlobBytes>;
using DeepMemo = DigestMemo<Key, Blob, BlobBytes, Deeper>;

std::shared_ptr<const Blob> blob(std::size_t bytes, std::uint64_t depth = 0) {
  return std::make_shared<const Blob>(Blob{bytes, depth});
}

Key key(std::uint64_t i) { return {i, ~i}; }

/// One FIFO scenario: publish entries of `sizes` bytes (keys 0, 1, ...)
/// under `budget`, then expect exactly `resident` to remain.
struct FifoCase {
  const char* name;
  std::size_t budget;
  std::vector<std::size_t> sizes;
  std::vector<std::uint64_t> resident;
};

TEST(DigestMemo, EvictsOldestFirst) {
  // The first two rows mirror the arrival and tree caches' own budget
  // tests, which pin each cache's byte accounting on top of this.
  const std::vector<FifoCase> cases = {
      {"arrival_streams", 3, {2, 2}, {1}},
      {"route_trees", 2, {1, 1, 1}, {1, 2}},
      {"several_victims", 4, {1, 1, 1, 3}, {2, 3}},
      {"exact_fit", 3, {1, 1, 1}, {0, 1, 2}},
  };
  for (const FifoCase& c : cases) {
    SCOPED_TRACE(c.name);
    Memo memo(c.budget);
    for (std::uint64_t i = 0; i < c.sizes.size(); ++i) {
      const auto value = blob(c.sizes[i]);
      // The newest entry always fits, so it is the one made resident.
      EXPECT_EQ(memo.publish(key(i), value), value);
    }
    std::size_t resident_bytes = 0;
    for (const std::uint64_t i : c.resident) resident_bytes += c.sizes[i];
    EXPECT_EQ(memo.size(), c.resident.size());
    EXPECT_EQ(memo.bytes(), resident_bytes);
    EXPECT_LE(memo.bytes(), c.budget);
    EXPECT_EQ(memo.evictions(), c.sizes.size() - c.resident.size());
    for (std::uint64_t i = 0; i < c.sizes.size(); ++i) {
      const bool kept = std::find(c.resident.begin(), c.resident.end(), i) !=
                        c.resident.end();
      EXPECT_EQ(memo.lookup(key(i)) != nullptr, kept) << "entry " << i;
    }
  }
}

TEST(DigestMemo, OversizedValueIsReturnedAndResidentsStay) {
  Memo memo(3);
  const auto resident = blob(2);
  memo.publish(key(1), resident);
  const auto huge = blob(5);
  EXPECT_EQ(memo.publish(key(9), huge), huge);
  EXPECT_EQ(memo.lookup(key(9)), nullptr);
  EXPECT_EQ(memo.lookup(key(1)), resident);
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.bytes(), 2u);
  EXPECT_EQ(memo.evictions(), 0u);
  EXPECT_EQ(memo.publishes(), 1u);

  // An oversized replacement is turned away too; the resident stays.
  DeepMemo deep(3);
  const auto shallow = blob(2, 1);
  deep.publish(key(1), shallow);
  const auto oversized_deeper = blob(5, 2);
  EXPECT_EQ(deep.publish(key(1), oversized_deeper), oversized_deeper);
  EXPECT_EQ(deep.lookup(key(1)), shallow);
  EXPECT_EQ(deep.replacements(), 0u);
}

TEST(DigestMemo, ZeroBudgetIsUnboundedUntilABudgetIsSet) {
  Memo memo;
  EXPECT_EQ(memo.max_bytes(), 0u);
  for (std::uint64_t i = 0; i < 8; ++i) memo.publish(key(i), blob(4));
  EXPECT_EQ(memo.size(), 8u);
  EXPECT_EQ(memo.bytes(), 32u);
  EXPECT_EQ(memo.evictions(), 0u);

  // Setting a budget later evicts oldest-first right away.
  memo.set_max_bytes(8);
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.evictions(), 6u);
  EXPECT_EQ(memo.lookup(key(5)), nullptr);
  EXPECT_NE(memo.lookup(key(6)), nullptr);
  EXPECT_NE(memo.lookup(key(7)), nullptr);
}

TEST(DigestMemo, FirstPublishWinsUnlessReplacePredicateHolds) {
  Memo first_only;
  const auto first = blob(1, 1);
  EXPECT_EQ(first_only.publish(key(1), first), first);
  EXPECT_EQ(first_only.publish(key(1), blob(1, 9)), first);
  EXPECT_EQ(first_only.publishes(), 1u);

  DeepMemo deep;
  const auto shallow = blob(1, 5);
  deep.publish(key(1), shallow);
  EXPECT_EQ(deep.publish(key(1), blob(1, 5)), shallow);  // equal: kept
  EXPECT_EQ(deep.publish(key(1), blob(1, 4)), shallow);  // shallower: kept
  const auto deeper = blob(3, 6);
  EXPECT_EQ(deep.publish(key(1), deeper), deeper);
  EXPECT_EQ(deep.lookup(key(1)), deeper);
  EXPECT_EQ(deep.size(), 1u);
  EXPECT_EQ(deep.bytes(), 3u);  // the replaced value's bytes are released
  EXPECT_EQ(deep.publishes(), 2u);
  EXPECT_EQ(deep.replacements(), 1u);
}

TEST(DigestMemo, ReplacementKeepsItsPlaceInTheEvictionOrder) {
  DeepMemo deep(2);
  deep.publish(key(0), blob(1, 1));
  deep.publish(key(1), blob(1, 1));
  deep.publish(key(0), blob(1, 2));  // replaced in place, still oldest
  deep.publish(key(2), blob(1, 1));
  EXPECT_EQ(deep.lookup(key(0)), nullptr);
  EXPECT_NE(deep.lookup(key(1)), nullptr);
  EXPECT_NE(deep.lookup(key(2)), nullptr);
  EXPECT_EQ(deep.evictions(), 1u);
}

TEST(DigestMemo, ClearZeroesCountersAndKeepsBudgetAndHeldValues) {
  DeepMemo deep(2);
  const auto held = blob(1, 1);
  deep.publish(key(0), held);
  deep.publish(key(0), blob(1, 2));
  deep.publish(key(1), blob(1));
  deep.publish(key(2), blob(1));
  (void)deep.lookup(key(2));
  (void)deep.lookup(key(7));
  EXPECT_EQ(deep.hits(), 1u);
  EXPECT_EQ(deep.misses(), 1u);
  EXPECT_EQ(deep.publishes(), 4u);
  EXPECT_EQ(deep.replacements(), 1u);
  EXPECT_EQ(deep.evictions(), 1u);

  deep.clear();
  EXPECT_EQ(deep.size(), 0u);
  EXPECT_EQ(deep.bytes(), 0u);
  EXPECT_EQ(deep.hits(), 0u);
  EXPECT_EQ(deep.misses(), 0u);
  EXPECT_EQ(deep.publishes(), 0u);
  EXPECT_EQ(deep.replacements(), 0u);
  EXPECT_EQ(deep.evictions(), 0u);
  EXPECT_EQ(deep.max_bytes(), 2u);
  EXPECT_EQ(held->depth, 1u);  // values handed out outlive the clear

  // Counting starts afresh.
  EXPECT_EQ(deep.lookup(key(0)), nullptr);
  EXPECT_EQ(deep.misses(), 1u);
}

TEST(DigestMemo, EnvBudgetReadsPositiveBytesOnly) {
  ::setenv("SCAL_DIGEST_MEMO_TEST_BYTES", "4096", 1);
  EXPECT_EQ(Memo::env_budget("SCAL_DIGEST_MEMO_TEST_BYTES"), 4096u);
  ::setenv("SCAL_DIGEST_MEMO_TEST_BYTES", "-5", 1);
  EXPECT_EQ(Memo::env_budget("SCAL_DIGEST_MEMO_TEST_BYTES"), 0u);
  ::unsetenv("SCAL_DIGEST_MEMO_TEST_BYTES");
  EXPECT_EQ(Memo::env_budget("SCAL_DIGEST_MEMO_TEST_BYTES"), 0u);
}

TEST(DigestMemo, ConcurrentPublishAndLookupStayConsistent) {
  // Racing publishers deepen a shared key set under a tight budget while
  // readers look the same keys up: every value seen must belong to its
  // key, and the counters and byte total must add up afterwards.
  constexpr std::uint64_t kKeys = 16;
  constexpr std::uint64_t kRounds = 400;
  constexpr int kThreads = 8;
  constexpr std::size_t kBudget = 8 * 16;
  DeepMemo deep(kBudget);
  std::vector<std::thread> threads;
  std::vector<int> bad(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t round = 0; round < kRounds; ++round) {
        for (std::uint64_t k = 0; k < kKeys; ++k) {
          // Bytes encode the key, so a value under the wrong key shows.
          if (t % 2 == 0) {
            deep.publish(key(k), blob(8 + k, round));
          } else if (const auto seen = deep.lookup(key(k))) {
            if (seen->bytes != 8 + k) ++bad[static_cast<std::size_t>(t)];
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const int b : bad) EXPECT_EQ(b, 0);
  EXPECT_EQ(deep.hits() + deep.misses(), kRounds * kKeys * (kThreads / 2));
  EXPECT_LE(deep.bytes(), kBudget);
  EXPECT_GE(deep.publishes(), deep.replacements());
  std::size_t resident = 0;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    if (const auto value = deep.lookup(key(k))) resident += value->bytes;
  }
  EXPECT_EQ(resident, deep.bytes());
}

}  // namespace
}  // namespace scal::util
