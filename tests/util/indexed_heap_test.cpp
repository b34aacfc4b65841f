#include "util/indexed_heap.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace scal::util {
namespace {

using Heap = IndexedHeap<24>;
using Key = std::pair<std::uint64_t, std::uint64_t>;  // (key bits, tie)

Key key_of(const Heap::Entry& e) { return {e.key, e.tie}; }

/// Checks every observable of the heap against the reference set.
void expect_matches(const Heap& heap, const std::set<Key>& ref,
                    const std::vector<std::uint64_t>& tie_of_id) {
  ASSERT_EQ(heap.size(), ref.size());
  ASSERT_EQ(heap.empty(), ref.empty());
  if (!ref.empty()) {
    ASSERT_EQ(key_of(heap.top()), *ref.begin());
  }
  for (std::uint32_t id = 0; id < tie_of_id.size(); ++id) {
    const bool queued = tie_of_id[id] != ~std::uint64_t{0};
    ASSERT_EQ(heap.contains(id), queued) << "id " << id;
  }
  std::set<Key> listed;
  for (const Heap::Entry& e : heap.entries()) listed.insert(key_of(e));
  ASSERT_EQ(listed, ref);
}

TEST(IndexedHeap, RandomOpsMatchSetReference) {
  // Keys come from a small pool, so equal keys (ties broken by the tie
  // word) are frequent; the pool includes -0.0, +0.0 and +inf.
  const std::vector<double> pool = {
      0.0, -0.0, 0.5, 1.0, 1.0, 2.5, 7.0, 1e300,
      std::numeric_limits<double>::infinity()};
  constexpr std::uint32_t kIds = 64;
  std::mt19937_64 rng(2024);
  Heap heap;
  heap.resize_ids(kIds);
  std::set<Key> ref;
  std::vector<std::uint64_t> tie_of_id(kIds, ~std::uint64_t{0});
  std::vector<std::uint64_t> key_of_id(kIds, 0);
  auto pick_id = [&](bool queued) -> std::int64_t {
    std::vector<std::uint32_t> ids;
    for (std::uint32_t id = 0; id < kIds; ++id) {
      if ((tie_of_id[id] != ~std::uint64_t{0}) == queued) ids.push_back(id);
    }
    if (ids.empty()) return -1;
    return ids[rng() % ids.size()];
  };
  for (int step = 0; step < 20000; ++step) {
    const unsigned op = rng() % 10;
    if (op < 4) {  // push
      const std::int64_t id = pick_id(false);
      if (id < 0) continue;
      const double key = pool[rng() % pool.size()];
      // A small random sequence part above the id: ties on the key are
      // broken by it first, then by the id.
      const std::uint64_t tie = ((rng() % 4) << 24) | std::uint64_t(id);
      heap.push(key, tie);
      tie_of_id[id] = tie;
      key_of_id[id] = Heap::key_bits(key);
      ref.insert({Heap::key_bits(key), tie});
    } else if (op < 6) {  // pop, either leaving the root vacant or not
      if (ref.empty()) continue;
      const Heap::Entry e = op == 4 ? heap.pop_min_vacant() : heap.pop_min();
      ASSERT_EQ(key_of(e), *ref.begin());
      ref.erase(ref.begin());
      tie_of_id[Heap::id_of(e)] = ~std::uint64_t{0};
    } else if (op < 8) {  // decrease-key
      const std::int64_t id = pick_id(true);
      if (id < 0) continue;
      const double current = Heap::key_value(key_of_id[id]);
      std::vector<double> lower;
      for (const double k : pool) {
        if (k <= current) lower.push_back(k);
      }
      const double key = lower[rng() % lower.size()];
      ref.erase({key_of_id[id], tie_of_id[id]});
      heap.decrease(static_cast<std::uint32_t>(id), key);
      key_of_id[id] = Heap::key_bits(key);
      ref.insert({key_of_id[id], tie_of_id[id]});
    } else {  // erase
      const std::int64_t id = pick_id(true);
      if (id < 0) continue;
      heap.erase(static_cast<std::uint32_t>(id));
      ref.erase({key_of_id[id], tie_of_id[id]});
      tie_of_id[id] = ~std::uint64_t{0};
    }
    expect_matches(heap, ref, tie_of_id);
    if (HasFatalFailure()) return;
  }
  while (!ref.empty()) {
    ASSERT_EQ(key_of(heap.pop_min()), *ref.begin());
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(heap.empty());
}

TEST(IndexedHeap, EqualKeysPopInTieWordOrder) {
  Heap heap;
  heap.resize_ids(16);
  const std::vector<std::uint32_t> order = {9, 3, 14, 0, 7, 11, 1, 5};
  for (const std::uint32_t id : order) heap.push(4.0, id);
  std::vector<std::uint32_t> popped;
  while (!heap.empty()) popped.push_back(Heap::id_of(heap.pop_min()));
  EXPECT_EQ(popped, (std::vector<std::uint32_t>{0, 1, 3, 5, 7, 9, 11, 14}));

  // The tie word's high bits outrank the id.
  heap.push(1.0, (std::uint64_t{2} << 24) | 1);
  heap.push(1.0, (std::uint64_t{1} << 24) | 2);
  EXPECT_EQ(Heap::id_of(heap.pop_min()), 2u);
  EXPECT_EQ(Heap::id_of(heap.pop_min()), 1u);
}

TEST(IndexedHeap, NegativeZeroSortsAsZeroAndInfinityLast) {
  Heap heap;
  heap.resize_ids(8);
  heap.push(std::numeric_limits<double>::infinity(), 0);
  heap.push(std::numeric_limits<double>::max(), 1);
  heap.push(-0.0, 5);
  heap.push(0.0, 3);
  heap.push(std::numeric_limits<double>::denorm_min(), 2);

  Heap::Entry e = heap.pop_min();
  EXPECT_EQ(Heap::id_of(e), 3u);  // +0.0 and -0.0 tie; the id decides
  e = heap.pop_min();
  EXPECT_EQ(Heap::id_of(e), 5u);
  EXPECT_EQ(Heap::key_value(e.key), 0.0);
  EXPECT_FALSE(std::signbit(Heap::key_value(e.key)));  // canonicalised
  EXPECT_EQ(Heap::id_of(heap.pop_min()), 2u);
  EXPECT_EQ(Heap::id_of(heap.pop_min()), 1u);
  e = heap.pop_min();
  EXPECT_EQ(Heap::id_of(e), 0u);
  EXPECT_EQ(Heap::key_value(e.key), std::numeric_limits<double>::infinity());
  EXPECT_TRUE(heap.empty());
}

TEST(IndexedHeap, VacantRootKeepsTopSizeAndEntries) {
  Heap heap;
  heap.resize_ids(8);
  for (std::uint32_t id = 0; id < 6; ++id) heap.push(10.0 - id, id);
  EXPECT_EQ(Heap::id_of(heap.pop_min_vacant()), 5u);  // root now vacant
  EXPECT_EQ(heap.size(), 5u);
  EXPECT_EQ(heap.entries().size(), 5u);
  EXPECT_EQ(Heap::id_of(heap.top()), 4u);  // read from the root's children
  EXPECT_FALSE(heap.contains(5));

  heap.push(0.5, 5);  // fills the vacant root
  EXPECT_EQ(heap.size(), 6u);
  EXPECT_EQ(Heap::id_of(heap.top()), 5u);

  // Two vacating pops in a row refill the root in between.
  EXPECT_EQ(Heap::id_of(heap.pop_min_vacant()), 5u);
  EXPECT_EQ(Heap::id_of(heap.pop_min_vacant()), 4u);
  EXPECT_EQ(Heap::id_of(heap.pop_min()), 3u);
  EXPECT_EQ(heap.size(), 3u);

  // Popping the last entry leaves an empty heap with a vacant root.
  Heap one;
  one.resize_ids(1);
  one.push(1.0, 0);
  EXPECT_EQ(Heap::id_of(one.pop_min_vacant()), 0u);
  EXPECT_TRUE(one.empty());
  EXPECT_TRUE(one.entries().empty());
  one.push(2.0, 0);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(Heap::key_value(one.top().key), 2.0);
}

TEST(IndexedHeap, ClearDropsEntriesAndKeepsIds) {
  Heap heap;
  heap.resize_ids(4);
  heap.push(1.0, 0);
  heap.push(2.0, 1);
  heap.pop_min_vacant();
  heap.clear();
  EXPECT_TRUE(heap.empty());
  for (std::uint32_t id = 0; id < 4; ++id) EXPECT_FALSE(heap.contains(id));
  heap.push(3.0, 1);
  EXPECT_EQ(Heap::id_of(heap.pop_min()), 1u);
}

TEST(IndexedHeap, CopiesAreIndependent) {
  Heap heap;
  heap.resize_ids(8);
  for (std::uint32_t id = 0; id < 8; ++id) heap.push(id * 1.5, id);
  heap.pop_min_vacant();
  const Heap copy = heap;
  heap.decrease(7, 0.0);
  heap.erase(3);
  EXPECT_EQ(copy.size(), 7u);
  EXPECT_EQ(Heap::id_of(copy.top()), 1u);
  EXPECT_TRUE(copy.contains(3));
  EXPECT_EQ(Heap::id_of(heap.top()), 7u);
}

}  // namespace
}  // namespace scal::util
