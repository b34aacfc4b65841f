#include "sim/event_queue.hpp"

#include <cassert>
#include <stdexcept>
#include <utility>

namespace scal::sim {

EventId EventQueue::push(Time at, std::uint64_t seq, EventFn fn) {
  std::uint32_t slot;
  if (free_head_ != kNoFree) {
    slot = free_head_;
    free_head_ = slots_[slot].heap_pos;
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.heap_pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(HeapEntry{at, seq, slot});
  ++pushed_;
  sift_up(heap_.size() - 1);
  return make_id(s.gen, slot);
}

bool EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size()) return false;
  // The generation is bumped every time a slot is released, so it matches
  // the handle exactly while (and only while) the event is still pending.
  if (slots_[slot].gen != gen) return false;
  heap_erase(slots_[slot].heap_pos);
  release_slot(slot);
  return true;
}

Time EventQueue::next_time() const {
  if (heap_.empty()) throw std::logic_error("EventQueue::next_time: empty");
  return heap_.front().at;
}

EventQueue::Popped EventQueue::pop() {
  if (heap_.empty()) throw std::logic_error("EventQueue::pop: empty");
  const HeapEntry top = heap_.front();
  Slot& s = slots_[top.slot];
  Popped out{top.at, make_id(s.gen, top.slot), std::move(s.fn)};
  heap_erase(0);
  release_slot(top.slot);
  return out;
}

void EventQueue::sift_up(std::size_t pos) {
  const HeapEntry moving = heap_[pos];
  while (pos > 0) {
    const std::size_t parent = (pos - 1) / kArity;
    if (!before(moving, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    slots_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = parent;
  }
  heap_[pos] = moving;
  slots_[moving.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::sift_down(std::size_t pos) {
  const HeapEntry moving = heap_[pos];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = kArity * pos + 1;
    if (first >= n) break;
    std::size_t child = first;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (before(heap_[c], heap_[child])) child = c;
    }
    if (!before(heap_[child], moving)) break;
    heap_[pos] = heap_[child];
    slots_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    pos = child;
  }
  heap_[pos] = moving;
  slots_[moving.slot].heap_pos = static_cast<std::uint32_t>(pos);
}

void EventQueue::heap_erase(std::size_t pos) {
  assert(pos < heap_.size());
  const std::size_t last = heap_.size() - 1;
  if (pos != last) {
    heap_[pos] = heap_[last];
    slots_[heap_[pos].slot].heap_pos = static_cast<std::uint32_t>(pos);
    heap_.pop_back();
    // The replacement came from the bottom, so it can only need to move
    // down — unless its new parent is later than it (possible when it
    // came from a different subtree), in which case sift up.
    if (pos > 0 && before(heap_[pos], heap_[(pos - 1) / kArity])) {
      sift_up(pos);
    } else {
      sift_down(pos);
    }
  } else {
    heap_.pop_back();
  }
}

void EventQueue::clear() {
  for (const HeapEntry& entry : heap_) {
    Slot& s = slots_[entry.slot];
    s.fn.reset();
    ++s.gen;
  }
  heap_.clear();
  // Rebuild the free list ascending so the next run pops slots 0, 1, 2,
  // ... — the same order a fresh queue allocates them in.
  free_head_ = kNoFree;
  for (std::size_t i = slots_.size(); i-- > 0;) {
    slots_[i].heap_pos = free_head_;
    free_head_ = static_cast<std::uint32_t>(i);
  }
  next_seq_ = 0;
  pushed_ = 0;
}

void EventQueue::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  ++s.gen;  // invalidate outstanding handles
  s.heap_pos = free_head_;
  free_head_ = slot;
}

}  // namespace scal::sim
