#include "sim/event_queue.hpp"

#include <stdexcept>
#include <utility>

namespace scal::sim {

EventId EventQueue::push(Time at, std::uint64_t seq, EventFn fn) {
  if (!(at >= 0.0)) {
    throw std::invalid_argument("EventQueue: negative or NaN event time");
  }
  if (seq >> kSeqBits != 0) {
    throw std::length_error(
        "EventQueue: more than 2^40 insertion sequence numbers in one run");
  }
  const std::uint32_t slot = acquire_slot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  heap_.push(at, (seq << kSlotBits) | slot);
  ++pushed_;
  return make_id(s.gen, slot);
}

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoFree) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  if (slots_.size() >= (std::size_t{1} << kSlotBits)) {
    throw std::length_error("EventQueue: more than 2^24 pending events");
  }
  const auto slot = static_cast<std::uint32_t>(slots_.size());
  slots_.emplace_back();
  heap_.resize_ids(slots_.size());
  return slot;
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  // The generation is bumped every time a slot is released, so it matches
  // the handle exactly while (and only while) the event is still pending.
  if (slots_[slot].gen != gen) return false;
  heap_.erase(slot);
  release_slot(slot);
  return true;
}

Time EventQueue::next_time() const {
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time: empty");
  return peek_time();
}

EventQueue::Popped EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue::pop: empty");
  const Heap::Entry top = heap_.pop_min_vacant();
  const std::uint32_t slot = Heap::id_of(top);
  Slot& s = slots_[slot];
  Popped out{Heap::key_value(top.key), make_id(s.gen, slot), std::move(s.fn)};
  release_slot(slot);
  return out;
}

void EventQueue::clear() {
  for (const Heap::Entry& entry : heap_.entries()) {
    Slot& s = slots_[Heap::id_of(entry)];
    s.fn.reset();
    ++s.gen;
  }
  heap_.clear();
  // Rebuild the free list ascending so the next run pops slots 0, 1, 2,
  // ... — the same order a fresh queue allocates them in.
  free_head_ = kNoFree;
  for (std::size_t i = slots_.size(); i-- > 0;) {
    slots_[i].next_free = free_head_;
    free_head_ = static_cast<std::uint32_t>(i);
  }
  next_seq_ = 0;
  pushed_ = 0;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  ++s.gen;  // invalidate outstanding handles
  s.next_free = free_head_;
  free_head_ = slot;
}

}  // namespace scal::sim
