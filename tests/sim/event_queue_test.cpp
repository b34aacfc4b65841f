#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace scal::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_THROW(q.pop(), std::logic_error);
  EXPECT_THROW(q.next_time(), std::logic_error);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(3.0, [&] { fired.push_back(3); });
  q.push(1.0, [&] { fired.push_back(1); });
  q.push(2.0, [&] { fired.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> fired;
  for (int i = 0; i < 10; ++i) {
    q.push(5.0, [&fired, i] { fired.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(fired[static_cast<size_t>(i)], i);
}

TEST(EventQueue, ReservedSequenceTiesAsIfPushedAtReservation) {
  EventQueue q;
  std::vector<int> fired;
  q.push(5.0, [&] { fired.push_back(0); });
  const std::uint64_t first = q.reserve(2);
  q.push(5.0, [&] { fired.push_back(3); });
  q.push(5.0, first + 1, [&] { fired.push_back(2); });
  q.push(5.0, first, [&] { fired.push_back(1); });
  EXPECT_EQ(q.total_pushed(), 4u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3}));
  q.clear();
  EXPECT_EQ(q.reserve(1), 0u);  // clear() rewinds reservations too
}

TEST(EventQueue, NextTimeMatchesEarliest) {
  EventQueue q;
  q.push(7.0, [] {});
  q.push(2.5, [] {});
  EXPECT_DOUBLE_EQ(q.next_time(), 2.5);
}

TEST(EventQueue, CancelPendingEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(1.0, [&] { fired = true; });
  q.push(2.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  while (!q.empty()) q.pop().fn();
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelTwiceReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelFiredEventReturnsFalse) {
  EventQueue q;
  const EventId id = q.push(1.0, [] {});
  q.pop();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAllThenEmpty) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(q.push(i, [] {}));
  for (const EventId id : ids) EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, InterleavedPushPopKeepsOrder) {
  EventQueue q;
  std::vector<double> popped;
  q.push(10.0, [] {});
  q.push(1.0, [] {});
  popped.push_back(q.pop().at);
  q.push(5.0, [] {});
  q.push(0.5, [] {});  // earlier than already-popped is allowed here;
                       // the Simulator is what enforces causality
  popped.push_back(q.pop().at);
  popped.push_back(q.pop().at);
  popped.push_back(q.pop().at);
  EXPECT_EQ(popped, (std::vector<double>{1.0, 0.5, 5.0, 10.0}));
}

TEST(EventQueue, TracksTotalPushed) {
  EventQueue q;
  for (int i = 0; i < 4; ++i) q.push(1.0, [] {});
  EXPECT_EQ(q.total_pushed(), 4u);
}

TEST(EventQueue, CancelThenPopSkipsCancelled) {
  // Cancellation is eager: the event leaves the heap immediately, so a
  // pop right after a cancel must hand out the next live event, and
  // size() must never count cancelled entries (the old lazy-cancel
  // design double-counted buried tombstones).
  EventQueue q;
  std::vector<int> fired;
  q.push(1.0, [&] { fired.push_back(1); });
  const EventId second = q.push(2.0, [&] { fired.push_back(2); });
  q.push(3.0, [&] { fired.push_back(3); });
  EXPECT_TRUE(q.cancel(second));
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, (std::vector<int>{1, 3}));
}

TEST(EventQueue, CancelAfterFireIsRejectedEvenWhenSlotReused) {
  EventQueue q;
  const EventId first = q.push(1.0, [] {});
  q.pop();  // fires `first`; its arena slot returns to the free list
  // The next push reuses the slot; the stale id must not cancel it.
  bool fired = false;
  const EventId second = q.push(2.0, [&] { fired = true; });
  EXPECT_FALSE(q.cancel(first));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(second));
  EXPECT_FALSE(fired);
}

TEST(EventQueue, TieBreakSurvivesSameTimestampCancelChurn) {
  // Heavy same-timestamp churn with interleaved cancels: the survivors
  // must still fire in insertion order.  Heap-erase moves entries
  // around, so this pins that the (time, seq) keys — not heap positions
  // — define the order.
  EventQueue q;
  std::vector<int> fired;
  std::vector<EventId> ids;
  for (int i = 0; i < 300; ++i) {
    ids.push_back(q.push(5.0, [&fired, i] { fired.push_back(i); }));
  }
  std::vector<int> expect;
  for (int i = 0; i < 300; ++i) {
    if (i % 3 == 1) {
      EXPECT_TRUE(q.cancel(ids[static_cast<std::size_t>(i)]));
    } else {
      expect.push_back(i);
    }
  }
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(fired, expect);
}

TEST(EventQueue, MixedTimestampCancelPopsInOrder) {
  // Pseudo-random times with a cancelled subset: remaining events pop
  // in nondecreasing time order.
  EventQueue q;
  std::vector<EventId> ids;
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 500; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    ids.push_back(q.push(static_cast<double>(x % 1000), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 2) {
    EXPECT_TRUE(q.cancel(ids[i]));
  }
  double last = -1.0;
  while (!q.empty()) {
    const double at = q.pop().at;
    EXPECT_GE(at, last);
    last = at;
  }
}

TEST(EventQueue, ArenaSlotsAreReused) {
  // Steady-state churn must not grow the arena: pushed-then-popped
  // slots go back to the free list and get handed out again.
  EventQueue q;
  for (int round = 0; round < 100; ++round) {
    q.push(static_cast<double>(round), [] {});
    q.push(static_cast<double>(round) + 0.5, [] {});
    q.pop();
    q.pop();
  }
  EXPECT_LE(q.arena_size(), 2u);
  EXPECT_EQ(q.total_pushed(), 200u);
}

TEST(EventQueue, CancelOfForeignIdIsRejected) {
  EventQueue q;
  q.push(1.0, [] {});
  // Slot index far beyond the arena: must be rejected, not crash.
  EXPECT_FALSE(q.cancel(static_cast<EventId>(0xFFFFFFFFull)));
}

TEST(EventQueue, PeekTimeMatchesNextTime) {
  EventQueue q;
  q.push(4.0, [] {});
  q.push(1.5, [] {});
  EXPECT_DOUBLE_EQ(q.peek_time(), q.next_time());
  EXPECT_DOUBLE_EQ(q.peek_time(), 1.5);
}

TEST(EventQueue, ClearMatchesFreshQueue) {
  // clear() must leave the queue indistinguishable from a new one: same
  // slot handout order and same seq tie-breaking, so a reset simulation
  // replays bit-identically on a recycled arena.
  EventQueue used;
  for (int i = 0; i < 8; ++i) used.push(static_cast<double>(i), [] {});
  used.pop();
  used.pop();
  used.clear();
  EXPECT_TRUE(used.empty());
  EXPECT_EQ(used.total_pushed(), 0u);

  EventQueue fresh;
  std::vector<int> fired_used;
  std::vector<int> fired_fresh;
  auto feed = [](EventQueue& q, std::vector<int>& fired) {
    for (int i = 0; i < 6; ++i) {
      q.push(3.0, [&fired, i] { fired.push_back(i); });
    }
    while (!q.empty()) q.pop().fn();
  };
  feed(used, fired_used);
  feed(fresh, fired_fresh);
  EXPECT_EQ(fired_used, fired_fresh);
}

TEST(EventQueue, ClearInvalidatesLiveIds) {
  EventQueue q;
  const EventId stale = q.push(1.0, [] {});
  q.clear();
  EXPECT_FALSE(q.cancel(stale));
  bool fired = false;
  q.push(2.0, [&] { fired = true; });
  // The recycled slot's new id must work even though the stale one is dead.
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, ClearReleasesCallables) {
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> weak = token;
  EventQueue q;
  q.push(1.0, [token] {});
  token.reset();
  EXPECT_FALSE(weak.expired());
  q.clear();
  EXPECT_TRUE(weak.expired());
}

}  // namespace
}  // namespace scal::sim
