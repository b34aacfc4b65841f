#pragma once
// Indexed 4-ary min-heap of 16-byte entries: the one priority queue
// under the event kernel (sim::EventQueue) and the router's Dijkstra
// frontier (net::Router).
//
// An entry is the bit pattern of a non-negative double key plus a 64-bit
// tie-break word whose low `IdBits` bits carry the entry's id.  Entries
// order by (key bits, tie word) as unsigned integers: for keys >= 0 the
// bit pattern orders exactly as the double does, once -0.0 is folded
// into +0.0 (key_bits adds +0.0), and +inf sorts after every finite key.
// Because every id is unique, the order is total and the pop sequence is
// a function of the set of entries alone, never of the heap's layout.
//
// Layout:
//   - entries_: the 4-ary heap.  The four children of a node are one
//     contiguous 64-byte family (at most two cache lines; aligning the
//     families to single lines measured no faster), and choosing the
//     smallest is a branch-free tournament of three comparisons.  The
//     array keeps kArity sentinel entries (all bits set) past the last
//     live entry, so a partial family needs no bounds test.
//   - pos_: dense uint32 positions indexed by id (kAbsent when the id is
//     not queued), giving O(log n) decrease-key and erase.
//   - pop_min() is bottom-up: the hole at the root walks down the
//     smallest children to a leaf and the last entry sifts up from
//     there, one comparison per level fewer than a top-down sift.
//   - pop_min_vacant() instead leaves the root vacant.  A following
//     push() fills it with one sift-down from the root, saving the
//     hole's walk to a leaf and the push's climb back up; any other
//     mutation first refills the root as pop_min() would.  It pays for
//     a caller whose pops are mostly followed by a push that lands in
//     the upper half of the heap: 80-86% of the event queue's pops on
//     the repository benchmark's workloads are followed by a push,
//     which stops after 2.6-3.4 of 5-6 levels.  The router's frontier
//     (42-51% of pops followed by a push, which sinks to the bottom
//     level) uses pop_min().

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace scal::util {

template <unsigned IdBits>
class IndexedHeap {
  static_assert(IdBits > 0 && IdBits <= 32, "ids index a uint32 array");

 public:
  struct Entry {
    std::uint64_t key;  ///< bit pattern of a non-negative double
    std::uint64_t tie;  ///< tie-break word; low IdBits bits are the id
  };
  static_assert(sizeof(Entry) == 16);

  static constexpr std::size_t kArity = 4;
  static constexpr std::uint64_t kIdMask = (std::uint64_t{1} << IdBits) - 1;
  static constexpr std::uint32_t kAbsent = 0xFFFFFFFFu;

  /// Ordered bit pattern of a non-negative key (-0.0 canonicalised).
  static std::uint64_t key_bits(double key) noexcept {
    return std::bit_cast<std::uint64_t>(key + 0.0);
  }
  static double key_value(std::uint64_t bits) noexcept {
    return std::bit_cast<double>(bits);
  }
  static std::uint32_t id_of(const Entry& e) noexcept {
    return static_cast<std::uint32_t>(e.tie & kIdMask);
  }

  IndexedHeap() : entries_(kArity, kSentinel) {}

  /// Make ids [0, count) addressable; new ids start absent.
  void resize_ids(std::size_t count) { pos_.resize(count, kAbsent); }

  std::size_t size() const noexcept { return size_ - (vacant_ ? 1 : 0); }
  bool empty() const noexcept { return size() == 0; }
  bool contains(std::uint32_t id) const noexcept {
    return pos_[id] != kAbsent;
  }

  /// Insert (key, tie).  Preconditions: key >= 0 and not NaN; the id
  /// (tie & kIdMask) is addressable (see resize_ids) and not queued.
  void push(double key, std::uint64_t tie) {
    const Entry e{key_bits(key), tie};
    if (vacant_) {
      vacant_ = false;
      sift_down(0, e);
      return;
    }
    entries_[size_] = e;
    entries_.push_back(kSentinel);
    sift_up(size_++, e);
  }

  /// The smallest entry.  Precondition: !empty().
  const Entry& top() const noexcept {
    return vacant_ ? entries_[min_child(1)] : entries_[0];
  }

  /// Remove and return the smallest entry.  Precondition: !empty().
  Entry pop_min() {
    const Entry top = pop_min_vacant();
    refill();
    return top;
  }

  /// pop_min() that leaves the root vacant for the next push() to fill
  /// from the top (see the file comment).  Precondition: !empty().
  Entry pop_min_vacant() {
    refill();
    const Entry top = entries_[0];
    pos_[id_of(top)] = kAbsent;
    entries_[0] = kSentinel;
    vacant_ = true;
    return top;
  }

  /// Lower a queued id's key.  Precondition: contains(id), and `key` is
  /// not above the current key.
  void decrease(std::uint32_t id, double key) {
    refill();
    const std::size_t at = pos_[id];
    Entry e = entries_[at];
    e.key = key_bits(key);
    sift_up(at, e);
  }

  /// Remove a queued id.  Precondition: contains(id).
  void erase(std::uint32_t id) {
    refill();
    const std::size_t at = pos_[id];
    pos_[id] = kAbsent;
    const Entry last = take_last();
    if (at == size_) return;  // the erased entry was the last one
    if (at > 0 && less(last, entries_[(at - 1) / kArity])) {
      sift_up(at, last);
    } else {
      sift_down(at, last);
    }
  }

  /// Queued entries, in heap (not priority) order.
  std::span<const Entry> entries() const noexcept {
    const std::size_t first = vacant_ ? 1 : 0;
    return {entries_.data() + first, size_ - first};
  }

  /// Drop every entry; every id stays addressable and becomes absent.
  void clear() noexcept {
    for (const Entry& e : entries()) pos_[id_of(e)] = kAbsent;
    entries_.assign(kArity, kSentinel);
    size_ = 0;
    vacant_ = false;
  }

  /// Approximate resident payload in bytes.
  std::size_t bytes() const noexcept {
    return entries_.capacity() * sizeof(Entry) +
           pos_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr Entry kSentinel{~std::uint64_t{0}, ~std::uint64_t{0}};

  static bool less(const Entry& a, const Entry& b) noexcept {
    return (a.key < b.key) | ((a.key == b.key) & (a.tie < b.tie));
  }

  /// Index of the smallest of the four entries starting at `first`
  /// (sentinels past the end never win).
  std::size_t min_child(std::size_t first) const noexcept {
    const Entry* c = entries_.data() + first;
    const std::size_t lo = less(c[1], c[0]) ? 1 : 0;
    const std::size_t hi = less(c[3], c[2]) ? 3 : 2;
    return first + (less(c[hi], c[lo]) ? hi : lo);
  }

  /// Fill a vacant root now: walk the hole down the smallest children
  /// to a leaf, then sift the (typically large) last entry up from
  /// there.  No-op when the root is occupied.
  void refill() noexcept {
    if (!vacant_) return;
    vacant_ = false;
    const Entry last = take_last();
    if (size_ == 0) return;
    std::size_t hole = 0;
    for (;;) {
      const std::size_t first = kArity * hole + 1;
      if (first >= size_) break;
      const std::size_t child = min_child(first);
      place(hole, entries_[child]);
      hole = child;
    }
    sift_up(hole, last);
  }

  void place(std::size_t at, const Entry& e) noexcept {
    entries_[at] = e;
    pos_[id_of(e)] = static_cast<std::uint32_t>(at);
  }

  void sift_up(std::size_t at, const Entry& e) noexcept {
    while (at > 0) {
      const std::size_t parent = (at - 1) / kArity;
      if (!less(e, entries_[parent])) break;
      place(at, entries_[parent]);
      at = parent;
    }
    place(at, e);
  }

  void sift_down(std::size_t at, const Entry& e) noexcept {
    for (;;) {
      const std::size_t first = kArity * at + 1;
      if (first >= size_) break;
      const std::size_t child = min_child(first);
      if (!less(entries_[child], e)) break;
      place(at, entries_[child]);
      at = child;
    }
    place(at, e);
  }

  /// Detach the last array entry (shrinking the heap by one).
  Entry take_last() noexcept {
    const Entry last = entries_[--size_];
    entries_[size_] = kSentinel;
    entries_.pop_back();
    return last;
  }

  std::vector<Entry> entries_;  // size_ entries, then kArity sentinels
  std::vector<std::uint32_t> pos_;
  std::size_t size_ = 0;  // array entries in use, the vacant root included
  bool vacant_ = false;
};

}  // namespace scal::util
