#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <stdexcept>
#include <utility>
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

TEST(EventQueue, RandomOpsMatchTimeSeqReference) {
  // Differential check against a std::set ordered by (at, seq): pushes
  // (plain and under reserved sequence numbers), pops, cancels of live
  // and dead ids, clear(), and every observer after each step (after a
  // pop the heap root is vacant).
  using Order = std::pair<double, std::uint64_t>;
  std::mt19937_64 rng(77);
  EventQueue q;
  std::set<Order> ref;
  std::map<std::uint64_t, EventId> id_of_seq;  // pending events only
  std::vector<EventId> dead;
  std::uint64_t next_seq = 0;
  std::vector<std::uint64_t> reserved;  // unused reserved numbers
  double now = 0.0;
  std::uint64_t fired_seq = 0;

  auto check = [&] {
    ASSERT_EQ(q.size(), ref.size());
    ASSERT_EQ(q.empty(), ref.empty());
    if (!ref.empty()) {
      ASSERT_EQ(q.peek_time(), ref.begin()->first);
      ASSERT_EQ(q.next_time(), ref.begin()->first);
    }
  };
  auto push = [&](std::uint64_t seq, bool is_reserved) {
    // Near-front, far, and exactly-now times, so ties are common.
    const unsigned kind = rng() % 3;
    const double at = kind == 0   ? now
                      : kind == 1 ? now + 0.25 * double(rng() % 4)
                                  : now + double(rng() % 50);
    const auto body = [&fired_seq, seq] { fired_seq = seq; };
    const EventId id = is_reserved ? q.push(at, seq, body) : q.push(at, body);
    ref.insert({at, seq});
    id_of_seq[seq] = id;
  };

  for (int step = 0; step < 20000; ++step) {
    const unsigned op = rng() % 20;
    if (op < 7) {
      push(next_seq++, false);
    } else if (op < 8) {
      const std::uint64_t first = q.reserve(3);
      ASSERT_EQ(first, next_seq);
      next_seq += 3;
      for (std::uint64_t s = first; s < first + 3; ++s) reserved.push_back(s);
    } else if (op < 10) {
      if (reserved.empty()) continue;
      const std::size_t i = rng() % reserved.size();
      const std::uint64_t seq = reserved[i];
      reserved.erase(reserved.begin() + static_cast<std::ptrdiff_t>(i));
      push(seq, true);
    } else if (op < 16) {
      if (ref.empty()) continue;
      const Order expect = *ref.begin();
      EventQueue::Popped popped = q.pop();
      ASSERT_EQ(popped.at, expect.first);
      ASSERT_EQ(popped.id, id_of_seq[expect.second]);
      popped.fn();
      ASSERT_EQ(fired_seq, expect.second);
      now = popped.at;
      ref.erase(ref.begin());
      dead.push_back(popped.id);
      id_of_seq.erase(expect.second);
    } else if (op < 18) {
      if (ref.empty()) continue;
      auto it = ref.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(rng() % ref.size()));
      const EventId id = id_of_seq[it->second];
      ASSERT_TRUE(q.cancel(id));
      id_of_seq.erase(it->second);
      ref.erase(it);
      dead.push_back(id);
    } else if (op < 19) {
      if (dead.empty()) continue;
      ASSERT_FALSE(q.cancel(dead[rng() % dead.size()]));
    } else if (rng() % 20 == 0) {
      q.clear();
      ref.clear();
      for (const auto& [seq, id] : id_of_seq) dead.push_back(id);
      id_of_seq.clear();
      reserved.clear();
      next_seq = 0;
      now = 0.0;
      ASSERT_EQ(q.reserve(0), 0u);
    }
    check();
    if (HasFatalFailure()) return;
  }
}

TEST(EventQueue, ObserversWhileRootIsVacant) {
  EventQueue q;
  q.push(1.0, [] {});
  q.push(4.0, [] {});
  const EventId third = q.push(3.0, [] {});
  q.push(2.0, [] {});
  EXPECT_EQ(q.pop().at, 1.0);  // leaves the heap root vacant
  EXPECT_EQ(q.size(), 3u);
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.peek_time(), 2.0);
  EXPECT_EQ(q.next_time(), 2.0);
  EXPECT_TRUE(q.cancel(third));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().at, 2.0);
  EXPECT_EQ(q.pop().at, 4.0);
  EXPECT_TRUE(q.empty());  // vacant root, nothing queued
  EXPECT_THROW(q.next_time(), std::logic_error);
  EXPECT_THROW(q.pop(), std::logic_error);
  q.push(0.5, [] {});
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.peek_time(), 0.5);
}

TEST(EventQueue, NegativeZeroTimeFiresAsZeroInSequenceOrder) {
  EventQueue q;
  std::vector<int> fired;
  q.push(0.0, [&] { fired.push_back(0); });
  q.push(-0.0, [&] { fired.push_back(1); });
  q.push(0.0, [&] { fired.push_back(2); });
  while (!q.empty()) {
    EventQueue::Popped p = q.pop();
    EXPECT_FALSE(std::signbit(p.at));
    p.fn();
  }
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
}

TEST(EventQueue, RejectsNegativeAndNanTimes) {
  EventQueue q;
  EXPECT_THROW(q.push(-1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(q.push(std::nan(""), [] {}), std::invalid_argument);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.arena_size(), 0u);
}

TEST(EventQueue, SequenceNumbersPastPackingLimitThrow) {
  // Heap entries pack (seq << 24 | slot) into one word, so sequence
  // numbers stop at 2^40.  Reservations reach the limit without pushing
  // that many events.
  EventQueue q;
  const std::uint64_t limit = std::uint64_t{1} << 40;
  EXPECT_EQ(q.reserve(limit - 1), 0u);
  q.push(1.0, [] {});  // seq 2^40 - 1: the last one that packs
  EXPECT_THROW(q.push(2.0, [] {}), std::length_error);
  EXPECT_THROW(q.push(2.0, limit, [] {}), std::length_error);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.arena_size(), 1u);  // no slot leaked by the failed pushes
  q.push(3.0, limit - 2, [] {});  // a reserved number below the limit
  EXPECT_EQ(q.pop().at, 1.0);
  EXPECT_EQ(q.pop().at, 3.0);
  q.clear();  // rewinds the sequence; pushes work again
  q.push(1.0, [] {});
  EXPECT_EQ(q.size(), 1u);
}

}  // namespace
}  // namespace scal::sim
