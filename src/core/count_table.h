// Flat counted multiset: an open-addressing hash table of key -> positive
// count, the storage behind the aggregate degree state (core/aggregates.h).
//
// Linear probing over a power-of-two slot array, grown at load > 2/3. A slot
// whose count is 0 is empty, so there is no occupancy bit and no tombstone:
// erasure uses backward-shift deletion, which moves every displaced follower
// of the freed slot back toward its home slot. A long add/remove stream
// therefore never degrades probe lengths or grows the table beyond what its
// live entries need. Equality compares content (the same keys with the same
// counts), never slot layout, so two tables filled in different orders or
// grown through different capacities compare equal.

#ifndef PGHIVE_CORE_COUNT_TABLE_H_
#define PGHIVE_CORE_COUNT_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace pghive {

/// Slot hashes. Mix64 avalanches fully, so the low bits that pick a slot
/// depend on every key bit.
struct Mix64Hash {
  uint64_t operator()(uint64_t k) const { return Mix64(k); }
};

struct PairMix64Hash {
  uint64_t operator()(const std::pair<uint64_t, uint64_t>& k) const {
    return Mix64(Mix64(k.first) ^ k.second);
  }
};

template <typename Key, typename Hash>
class CountTable {
 public:
  size_t size() const { return size_; }
  /// Allocated slots (0 or a power of two >= 3/2 * size()).
  size_t capacity() const { return slots_.size(); }
  size_t HeapBytes() const { return slots_.capacity() * sizeof(Slot); }

  /// Count of `key`; 0 when absent.
  uint64_t Get(const Key& key) const {
    const size_t i = FindSlot(key);
    return i == kNone ? 0 : slots_[i].count;
  }

  /// Adds `n` (> 0) to the count of `key`; returns the new count.
  uint64_t Add(const Key& key, uint64_t n = 1) {
    if (3 * (size_ + 1) > 2 * slots_.size()) Grow();
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.count == 0) {
        s.key = key;
        s.count = n;
        ++size_;
        return n;
      }
      if (s.key == key) return s.count += n;
    }
  }

  /// Subtracts one from the count of `key`, erasing the entry at zero.
  /// Returns false, changing nothing, when `key` is absent; otherwise
  /// stores the remaining count in *remaining.
  bool Decrement(const Key& key, uint64_t* remaining) {
    const size_t i = FindSlot(key);
    if (i == kNone) return false;
    *remaining = --slots_[i].count;
    if (*remaining == 0) EraseSlot(i);
    return true;
  }

  /// Calls fn(key, count) for every entry, in slot order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.count != 0) fn(s.key, s.count);
    }
  }

  /// Every (key, count) entry in ascending key order.
  std::vector<std::pair<Key, uint64_t>> Sorted() const {
    std::vector<std::pair<Key, uint64_t>> out;
    out.reserve(size_);
    ForEach([&](const Key& k, uint64_t c) { out.emplace_back(k, c); });
    std::sort(out.begin(), out.end());
    return out;
  }

  friend bool operator==(const CountTable& a, const CountTable& b) {
    if (a.size_ != b.size_) return false;
    for (const Slot& s : a.slots_) {
      if (s.count != 0 && b.Get(s.key) != s.count) return false;
    }
    return true;
  }

 private:
  struct Slot {
    Key key{};
    uint64_t count = 0;
  };
  static constexpr size_t kNone = ~size_t{0};

  size_t FindSlot(const Key& key) const {
    if (size_ == 0) return kNone;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Hash{}(key) & mask;; i = (i + 1) & mask) {
      if (slots_[i].count == 0) return kNone;
      if (slots_[i].key == key) return i;
    }
  }

  /// Backward-shift deletion: walks the probe run after `hole` and moves
  /// each entry whose home slot does not lie cyclically in (hole, j] into
  /// the hole, so every remaining entry stays reachable from its home slot
  /// without tombstones. All index arithmetic is modulo the capacity, which
  /// is what lets runs wrap past the last slot.
  void EraseSlot(size_t hole) {
    const size_t mask = slots_.size() - 1;
    for (size_t j = (hole + 1) & mask; slots_[j].count != 0;
         j = (j + 1) & mask) {
      const size_t home = Hash{}(slots_[j].key) & mask;
      if (((j - home) & mask) >= ((j - hole) & mask)) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 8 : 2 * old.size(), Slot{});
    size_ = 0;
    for (const Slot& s : old) {
      if (s.count != 0) Add(s.key, s.count);
    }
  }

  std::vector<Slot> slots_;
  size_t size_ = 0;
};

}  // namespace pghive

#endif  // PGHIVE_CORE_COUNT_TABLE_H_
