// FlatIdMap: an open-addressing RequestId -> V table for per-step hot
// lookups (the serving loop resolves every scheduled item's id through
// one, the cache assigner every request's cache map). Linear probing over
// a power-of-two array of (id, value) pairs, Fibonacci-hashed so runs of
// sequential ids spread without clustering; erase shifts the probe run
// back, so there are no tombstones. V is a small trivially copyable value
// (a pointer). kInvalidRequestId marks an empty entry and cannot be a key.
// Not iterable: callers that need an order keep their own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace aptserve {

template <typename V>
class FlatIdMap {
 public:
  FlatIdMap() { Rebuild(16); }

  /// The value stored for `id`, or null.
  const V* Find(RequestId id) const {
    for (size_t i = Home(id);; i = (i + 1) & mask_) {
      const Entry& e = entries_[i];
      if (e.id == id) return &e.value;
      if (e.id == kInvalidRequestId) return nullptr;
    }
  }
  V* Find(RequestId id) {
    return const_cast<V*>(std::as_const(*this).Find(id));
  }
  bool Contains(RequestId id) const { return Find(id) != nullptr; }

  /// Inserts `id`, or overwrites its value when present.
  void Put(RequestId id, V value) {
    APT_CHECK_MSG(id != kInvalidRequestId, "FlatIdMap key is invalid");
    if (V* v = Find(id)) {
      *v = value;
      return;
    }
    if (2 * (size_ + 1) > entries_.size()) Rebuild(2 * entries_.size());
    size_t i = Home(id);
    while (entries_[i].id != kInvalidRequestId) i = (i + 1) & mask_;
    entries_[i] = {id, value};
    ++size_;
  }

  /// Removes `id`; false when absent.
  bool Erase(RequestId id) {
    size_t hole = Home(id);
    while (entries_[hole].id != id) {
      if (entries_[hole].id == kInvalidRequestId) return false;
      hole = (hole + 1) & mask_;
    }
    // Backward-shift: pull every later entry of the probe run whose home
    // does not lie cyclically in (hole, i] into the hole.
    for (size_t i = (hole + 1) & mask_; entries_[i].id != kInvalidRequestId;
         i = (i + 1) & mask_) {
      const size_t home = Home(entries_[i].id);
      const bool stays = hole <= i ? (hole < home && home <= i)
                                   : (hole < home || home <= i);
      if (!stays) {
        entries_[hole] = entries_[i];
        hole = i;
      }
    }
    entries_[hole].id = kInvalidRequestId;
    --size_;
    return true;
  }

  size_t size() const { return size_; }

 private:
  struct Entry {
    RequestId id = kInvalidRequestId;
    V value{};
  };

  size_t Home(RequestId id) const {
    return static_cast<size_t>(
        (static_cast<uint64_t>(id) * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Rebuild(size_t capacity) {
    std::vector<Entry> old;
    old.swap(entries_);
    entries_.assign(capacity, Entry{});
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    size_ = 0;
    for (const Entry& e : old) {
      if (e.id != kInvalidRequestId) Put(e.id, e.value);
    }
  }

  std::vector<Entry> entries_;
  size_t mask_ = 0;
  int shift_ = 64;
  size_t size_ = 0;
};

}  // namespace aptserve
