#include "support/rng.hpp"

#include <unordered_map>

namespace rtlock::support {

std::vector<std::size_t> Rng::sampleIndices(std::size_t n, std::size_t k) {
  RTLOCK_REQUIRE(k <= n, "cannot sample more indices than the population size");
  // Partial Fisher-Yates over the virtual array pool[i] = i: after k swaps
  // the first k slots are a uniform k-subset in uniform order.  Slot i is
  // final once step i has read it (every later swap partner lies above i),
  // so only the slots above i that a swap displaced need storing.
  std::unordered_map<std::size_t, std::size_t> displaced;
  displaced.reserve(k);
  const auto valueAt = [&displaced](std::size_t slot) {
    const auto it = displaced.find(slot);
    return it == displaced.end() ? slot : it->second;
  };
  std::vector<std::size_t> sample(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::size_t>(below(n - i));
    sample[i] = valueAt(j);
    if (j != i) displaced[j] = valueAt(i);
  }
  return sample;
}

}  // namespace rtlock::support
