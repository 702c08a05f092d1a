// Open-addressing index from hashed keys to dense ids in first-seen order.
//
// Grouping runs several times per auto-ml call over ~10^5 raw rows, in
// ml::Dataset's aggregation and in the SnapShot attack's row store
// (attack/pool_relock.hpp) — it has to be a flat probe table, not a
// node-based map with a key object per row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rtlock::support {

/// The caller keeps the keys; `same(id)` tells whether the probed key equals
/// the key of `id`.  Slots come from the low bits of the hash.
class ProbeTable {
 public:
  /// The id whose key `same` accepts; if there is none, the next fresh id
  /// (the number of ids handed out before the call), recorded under `hash`.
  template <typename Same>
  std::uint32_t intern(std::uint64_t hash, Same&& same) {
    std::size_t slot = static_cast<std::size_t>(hash) & (capacity_ - 1);
    for (;;) {
      const std::uint32_t id = slots_[slot];
      if (id == kEmpty) break;
      if (hashes_[id] == hash && same(id)) return id;
      slot = (slot + 1) & (capacity_ - 1);
    }
    const auto id = static_cast<std::uint32_t>(hashes_.size());
    slots_[slot] = id;
    hashes_.push_back(hash);
    if (hashes_.size() * 2 >= capacity_) grow();
    return id;
  }

 private:
  static constexpr std::uint32_t kEmpty = UINT32_MAX;

  void grow() {
    capacity_ *= 2;
    slots_.assign(capacity_, kEmpty);
    for (std::uint32_t id = 0; id < hashes_.size(); ++id) {
      std::size_t slot = static_cast<std::size_t>(hashes_[id]) & (capacity_ - 1);
      while (slots_[slot] != kEmpty) slot = (slot + 1) & (capacity_ - 1);
      slots_[slot] = id;
    }
  }

  std::size_t capacity_ = 64;  // power of two; grown when half full
  std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(64, kEmpty);
  std::vector<std::uint64_t> hashes_;  // per id
};

}  // namespace rtlock::support
