#pragma once
// The pending-event set of the discrete-event kernel.
//
// Ties on timestamp are broken by insertion sequence so that a run is a
// deterministic function of the schedule order — the property the whole
// scalability procedure's reproducibility rests on.
//
// Layout: a util::IndexedHeap (4-ary, 16-byte entries) of slot indices
// over a pooled, free-listed event arena.  A heap entry is the event's
// time bits plus one word packing (seq << 24 | slot), so the heap orders
// by (time, seq) and never touches the arena while sifting; heap
// positions live in the heap's own dense array.  Event closures live in
// a small-buffer callable inside the slot, so steady-state churn
// performs no per-event allocation, and cancel() removes the event
// eagerly in O(log n) with no hash lookups.  pop() leaves the heap root
// vacant (IndexedHeap::pop_min_vacant), so the successor an event
// schedules is placed by one sift-down from the root.  An EventId packs (generation << 32 | slot); the generation
// is bumped whenever a slot is released, which makes stale handles
// (already fired or cancelled) detectable in O(1).
//
// Capacity: 2^40 insertion sequence numbers per run (reservations
// included) and 2^24 arena slots; a push past either throws
// std::length_error.

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "util/indexed_heap.hpp"
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
  /// Throws std::invalid_argument for a negative or NaN time and
  /// std::length_error past the capacity above.
  EventId push(Time at, std::uint64_t seq, EventFn fn);

  /// Cancel a pending event, removing it from the heap immediately.
  /// Safe to call on ids that already fired or were already cancelled;
  /// returns true only if the event was still pending.
  bool cancel(EventId id);

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  Time next_time() const;
  /// next_time() without the emptiness check; precondition: !empty().
  Time peek_time() const noexcept { return Heap::key_value(heap_.top().key); }

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
  static constexpr unsigned kSlotBits = 24;
  static constexpr unsigned kSeqBits = 64 - kSlotBits;
  static constexpr std::uint32_t kNoFree = 0xFFFFFFFFu;
  using Heap = util::IndexedHeap<kSlotBits>;

  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;  // bumped on release; stale ids mismatch
    std::uint32_t next_free = kNoFree;  // free-list link while released
  };

  static EventId make_id(std::uint32_t gen, std::uint32_t slot) noexcept {
    return (static_cast<EventId>(gen) << 32) | slot;
  }

  /// A slot for a new event: the free-list head, or a new arena slot.
  std::uint32_t acquire_slot();
  /// Return a slot to the free list and invalidate outstanding ids.
  void release_slot(std::uint32_t slot);

  Heap heap_;                // min-heap by (at, seq); ids are slots
  std::vector<Slot> slots_;  // pooled arena of callables
  std::uint32_t free_head_ = kNoFree;
  std::uint64_t next_seq_ = 0;
  std::uint64_t pushed_ = 0;
};

}  // namespace scal::sim
