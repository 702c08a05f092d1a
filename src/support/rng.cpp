#include "support/rng.hpp"

#include <bit>

namespace rtlock::support {

std::vector<std::size_t> Rng::sampleIndices(std::size_t n, std::size_t k) {
  RTLOCK_REQUIRE(k <= n, "cannot sample more indices than the population size");
  // Partial Fisher-Yates over the virtual array pool[i] = i: after k swaps
  // the first k slots are a uniform k-subset in uniform order.  Slot i is
  // final once step i has read it (every later swap partner lies above i),
  // so only the slots above i that a swap displaced need storing: at most k
  // of them, in a flat linear-probing table at most half full.  Swap
  // partners are uniform, so the low bits of a slot place it well.
  struct Displaced {
    std::size_t slot;
    std::size_t value;
  };
  constexpr std::size_t kEmpty = SIZE_MAX;  // never a slot: slots lie below n
  const std::size_t capacity = std::bit_ceil(std::max<std::size_t>(16, 2 * k));
  std::vector<Displaced> table(capacity, Displaced{kEmpty, 0});
  // The table entry holding `slot`, or the empty entry where it would go.
  const auto find = [&table, capacity](std::size_t slot) -> Displaced& {
    std::size_t at = slot & (capacity - 1);
    while (table[at].slot != slot && table[at].slot != kEmpty) at = (at + 1) & (capacity - 1);
    return table[at];
  };
  const auto valueAt = [](const Displaced& entry, std::size_t slot) {
    return entry.slot == kEmpty ? slot : entry.value;
  };
  std::vector<std::size_t> sample(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::size_t>(below(n - i));
    Displaced& entry = find(j);
    sample[i] = valueAt(entry, j);
    if (j != i) entry = Displaced{j, valueAt(find(i), i)};
  }
  return sample;
}

}  // namespace rtlock::support
