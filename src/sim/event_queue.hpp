#pragma once
// The pending-event set of the discrete-event kernel.
//
// Ties on timestamp are broken by insertion sequence so that a run is a
// deterministic function of the schedule order — the property the whole
// scalability procedure's reproducibility rests on.
//
// Layout: an indexed binary min-heap of slot indices over a pooled,
// free-listed event arena.  Event closures live in a small-buffer
// callable inside the slot, so steady-state churn performs no per-event
// allocation; each slot records its heap position, so cancel() removes
// the event eagerly in O(log n) with no hash lookups.  An EventId packs
// (generation << 32 | slot); the generation is bumped whenever a slot is
// released, which makes stale handles (already fired or cancelled)
// detectable in O(1).

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/inline_fn.hpp"

namespace scal::sim {

using EventId = std::uint64_t;

/// Inline capture budget for event closures.  Sized so the kernel's
/// hottest captures — a full grid::RmsMessage (~120 bytes) plus the
/// routing context of the middleware relay chain — stay allocation-free;
/// larger captures fall back to the heap transparently.
inline constexpr std::size_t kEventInlineCapacity = 184;
using EventFn = util::InlineFn<kEventInlineCapacity>;

class EventQueue {
 public:
  /// Insert an event; returns its id (usable with cancel()).
  EventId push(Time at, EventFn fn) {
    return push(at, next_seq_++, std::move(fn));
  }

  /// Reserve `count` consecutive insertion sequence numbers at the
  /// current point of the schedule order and return the first.  An event
  /// pushed later under a reserved number breaks timestamp ties exactly
  /// as if it had been pushed at reservation time — which lets a chained
  /// stream keep the order of the events it would otherwise have
  /// pre-scheduled.
  std::uint64_t reserve(std::uint64_t count) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += count;
    return first;
  }

  /// Insert an event under a sequence number obtained from reserve().
  EventId push(Time at, std::uint64_t seq, EventFn fn);

  /// Cancel a pending event, removing it from the heap immediately.
  /// Safe to call on ids that already fired or were already cancelled;
  /// returns true only if the event was still pending.
  bool cancel(EventId id);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  Time next_time() const;
  /// next_time() without the emptiness check; precondition: !empty().
  Time peek_time() const noexcept { return heap_.front().at; }

  /// Pop the earliest live event.  Precondition: !empty().
  struct Popped {
    Time at;
    EventId id;
    EventFn fn;
  };
  Popped pop();

  std::uint64_t total_pushed() const noexcept { return pushed_; }

  /// Drop every pending event and rewind to the just-constructed state,
  /// keeping the arena allocation.  Live closures are destroyed, every
  /// generation of a previously-live slot is bumped (stale EventIds from
  /// the cleared run cannot cancel events of the next one), and the
  /// insertion sequence (reservations included) restarts at zero so
  /// timestamp tie-breaking — and therefore the next run's dispatch
  /// order — matches a freshly constructed queue bit for bit.
  void clear();

  /// Arena slots currently held (live + free-listed); exposed for tests.
  std::size_t arena_size() const noexcept { return slots_.size(); }

 private:
  static constexpr std::uint32_t kNoFree = 0xFFFFFFFFu;

  /// 4-ary heap: half the levels of a binary heap, and the children of
  /// a node are contiguous, so the extra comparisons per level stay in
  /// the same cache lines.  Pop-heavy discrete-event churn is dominated
  /// by sift-down, which this favors.
  static constexpr std::size_t kArity = 4;

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;  // bumped on release; stale ids mismatch
    // Position of this slot's entry in heap_ while live; while free,
    // reused as the next-free link of the arena free list.
    std::uint32_t heap_pos = 0;
  };

  /// The ordering keys live in the heap entries themselves, so sifting
  /// touches only the contiguous heap array — never the (much larger)
  /// slots — keeping the comparison path cache-resident.
  struct HeapEntry {
    Time at;
    std::uint64_t seq;   // insertion sequence; breaks timestamp ties
    std::uint32_t slot;  // arena index of the event's callable
  };

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) noexcept {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  /// True if heap entry `a` fires before `b`.
  static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  /// Remove the heap entry at `pos` (swap-with-last + re-sift).
  void heap_erase(std::size_t pos);
  /// Return a slot to the free list and invalidate outstanding ids.
  void release_slot(std::uint32_t slot);

  std::vector<HeapEntry> heap_;  // binary min-heap by (at, seq)
  std::vector<Slot> slots_;      // pooled arena of callables
  std::uint32_t free_head_ = kNoFree;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pushed_ = 0;
};

}  // namespace scal::sim
