#pragma once
// DigestMemo: a concurrent, byte-budgeted memo of immutable values keyed
// on a content digest.  It is the one mechanism behind the process-wide
// workload::ArrivalCache (arrival streams) and net::SharedTreeCache
// (settled route trees): entries are pure functions of their keys, so
// any reader may alias any resident value and the memo can drop entries
// at will without changing a result.
//
// - lookup() counts a hit or a miss.  It takes a shared lock and bumps
//   relaxed atomic counters, so concurrent readers never serialize.
// - publish() is first-publish-wins: racing publishers of one key
//   produce interchangeable values and the first becomes canonical.  An
//   optional `Replaces(resident, incoming)` predicate lets a later value
//   take over the entry (the tree cache: a strictly deeper snapshot).
// - A byte budget (0 = unbounded) caps the resident payload as measured
//   by `Bytes(value)`; publishes that overflow it evict oldest-first
//   (FIFO by first insertion).  A value larger than the whole budget is
//   handed back to the caller unstored and the resident entries stay.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <unordered_map>

#include "util/env.hpp"
#include "util/mix128.hpp"

namespace scal::util {

/// Default replace predicate: the first published value stays canonical.
struct KeepFirst {
  template <class Value>
  bool operator()(const Value& /*resident*/,
                  const Value& /*incoming*/) const noexcept {
    return false;
  }
};

template <class Key, class Value, class Bytes, class Replaces = KeepFirst>
class DigestMemo {
 public:
  using Ptr = std::shared_ptr<const Value>;

  explicit DigestMemo(std::size_t max_bytes = 0) : max_bytes_(max_bytes) {}

  /// The byte budget named by environment variable `var`: its value in
  /// bytes, or 0 (unbounded) when unset, unparseable or not positive.
  static std::size_t env_budget(const char* var) {
    const std::int64_t bytes = env_int(var, 0);
    return bytes > 0 ? static_cast<std::size_t>(bytes) : 0;
  }

  /// The resident value for `key`, or null.  Counts a hit or a miss.
  Ptr lookup(const Key& key) {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;
    }
    hits_.fetch_add(1, std::memory_order_relaxed);
    return it->second;
  }

  /// Offer `value` for `key`.  Returns the canonical value: the resident
  /// one when it stays, otherwise `value` itself — resident, or handed
  /// back unstored when it does not fit the byte budget.
  Ptr publish(const Key& key, Ptr value) {
    const std::unique_lock<std::shared_mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it != entries_.end() && !Replaces{}(*it->second, *value)) {
      return it->second;
    }
    const std::size_t cost = Bytes{}(*value);
    if (max_bytes_ != 0 && cost > max_bytes_) return value;
    if (it != entries_.end()) {
      // A replacement keeps the entry's place in the eviction order.
      bytes_ -= Bytes{}(*it->second);
      it->second = value;
      replacements_.fetch_add(1, std::memory_order_relaxed);
    } else {
      entries_.emplace(key, value);
      insertion_order_.push_back(key);
    }
    bytes_ += cost;
    publishes_.fetch_add(1, std::memory_order_relaxed);
    enforce_budget_locked();
    return value;
  }

  /// Byte budget for resident values; 0 = unbounded.  Shrinking it
  /// evicts oldest-first right away.
  void set_max_bytes(std::size_t bytes) {
    const std::unique_lock<std::shared_mutex> lock(mutex_);
    max_bytes_ = bytes;
    enforce_budget_locked();
  }
  std::size_t max_bytes() const {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    return max_bytes_;
  }
  /// Total payload bytes currently resident.
  std::size_t bytes() const {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    return bytes_;
  }
  /// Resident entries.
  std::size_t size() const {
    const std::shared_lock<std::shared_mutex> lock(mutex_);
    return entries_.size();
  }

  std::uint64_t hits() const { return load(hits_); }
  std::uint64_t misses() const { return load(misses_); }
  /// Values made resident, replacements included.
  std::uint64_t publishes() const { return load(publishes_); }
  /// Publishes that replaced a resident value (Replaces returned true).
  std::uint64_t replacements() const { return load(replacements_); }
  /// Entries dropped to honor the byte budget.
  std::uint64_t evictions() const { return load(evictions_); }

  /// Drop every entry and zero the counters; the byte budget is kept.
  /// Holders of returned values keep them alive.
  void clear() {
    const std::unique_lock<std::shared_mutex> lock(mutex_);
    entries_.clear();
    insertion_order_.clear();
    bytes_ = 0;
    for (auto* counter :
         {&hits_, &misses_, &publishes_, &replacements_, &evictions_}) {
      counter->store(0, std::memory_order_relaxed);
    }
  }

 private:
  static std::uint64_t load(const std::atomic<std::uint64_t>& counter) {
    return counter.load(std::memory_order_relaxed);
  }

  /// Evict oldest-first until the payload fits the budget (exclusive
  /// lock held).  Every key in insertion_order_ is resident: entries
  /// leave only through here or clear().
  void enforce_budget_locked() {
    while (max_bytes_ != 0 && bytes_ > max_bytes_) {
      const auto victim = entries_.find(insertion_order_.front());
      insertion_order_.pop_front();
      bytes_ -= Bytes{}(*victim->second);
      entries_.erase(victim);
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  mutable std::shared_mutex mutex_;
  std::unordered_map<Key, Ptr, DigestKeyHash> entries_;
  std::deque<Key> insertion_order_;  // FIFO eviction order
  std::size_t bytes_ = 0;
  std::size_t max_bytes_ = 0;  // 0 = unbounded
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> publishes_{0};
  std::atomic<std::uint64_t> replacements_{0};
  std::atomic<std::uint64_t> evictions_{0};
};

}  // namespace scal::util
