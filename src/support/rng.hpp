// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component in rtlock (operation selection, key generation,
// ML initialization, workload synthesis) draws from an explicitly seeded Rng
// passed in by the caller.  Nothing in the library touches global random
// state, so a (seed, configuration) pair fully determines every experiment.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "support/config.hpp"  // C++20 floor: pick() takes std::span
#include "support/diagnostics.hpp"

namespace rtlock::support {

/// xoshiro256** by Blackman & Vigna: fast, high-quality, 2^256-1 period.
/// Seeded through splitmix64 so that small consecutive seeds give unrelated
/// streams.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    // splitmix64 expansion of the scalar seed into the 256-bit state.
    auto next = [&seed]() noexcept {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    for (auto& word : state_) word = next();
  }

  [[nodiscard]] static constexpr result_type min() noexcept { return 0; }
  [[nodiscard]] static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound).  bound must be positive.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) {
    RTLOCK_REQUIRE(bound > 0, "Rng::below requires a positive bound");
    // Rejection below threshold = 2^64 mod bound avoids modulo bias.  The
    // threshold is always below `bound`, so a draw r >= bound is accepted
    // without computing it: the second division runs only when r < bound.
    std::uint64_t r = (*this)();
    if (r < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (r < threshold) r = (*this)();
    }
    return r % bound;
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) {
    RTLOCK_REQUIRE(lo <= hi, "Rng::range requires lo <= hi");
    const auto span = static_cast<std::uint64_t>(hi - lo);
    return lo + static_cast<std::int64_t>(span == max() ? (*this)() : below(span + 1));
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Bernoulli draw with success probability p.
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

  /// Fair coin flip (the paper's RndBoolean).
  [[nodiscard]] bool coin() noexcept { return ((*this)() & 1u) != 0; }

  /// Standard normal via Marsaglia polar method.
  [[nodiscard]] double gaussian() noexcept {
    for (;;) {
      const double u = uniform(-1.0, 1.0);
      const double v = uniform(-1.0, 1.0);
      const double s = u * u + v * v;
      if (s > 0.0 && s < 1.0) {
        double scale = 1.0;
        // sqrt(-2 ln s / s) without <cmath> dependency creep is not worth it;
        // use std functions.
        scale = std::sqrt(-2.0 * std::log(s) / s);
        return u * scale;
      }
    }
  }

  /// Uniformly pick an element of a non-empty span (the paper's RndSelect).
  template <typename T>
  [[nodiscard]] T& pick(std::span<T> items) {
    RTLOCK_REQUIRE(!items.empty(), "Rng::pick requires a non-empty span");
    return items[static_cast<std::size_t>(below(items.size()))];
  }

  template <typename T>
  [[nodiscard]] const T& pick(const std::vector<T>& items) {
    RTLOCK_REQUIRE(!items.empty(), "Rng::pick requires a non-empty vector");
    return items[static_cast<std::size_t>(below(items.size()))];
  }

  /// Fisher-Yates shuffle (the paper's Shuffle).
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      using std::swap;
      swap(items[i - 1], items[static_cast<std::size_t>(below(i))]);
    }
  }

  /// k distinct indices drawn uniformly from [0, n) (partial Fisher-Yates).
  /// Uses O(k) memory: only the positions a swap displaced are stored.
  [[nodiscard]] std::vector<std::size_t> sampleIndices(std::size_t n, std::size_t k);

  /// Equal generator states: both produce the same stream from here on.
  [[nodiscard]] bool operator==(const Rng&) const noexcept = default;

  /// Derive an independent child stream; children of distinct draws are
  /// statistically unrelated.
  [[nodiscard]] Rng fork() noexcept { return Rng{(*this)()}; }

  /// Task-indexed child stream: derived only from the current state and
  /// `index`, without advancing the parent.  This is the experiment engine's
  /// seeding convention — task i of a batch draws from `base.substream(i)`,
  /// so a sharded run produces bit-identical results at any thread count
  /// (every task's stream depends on (root seed, task index) alone, never on
  /// how many draws its siblings consumed).  Distinct indices give
  /// statistically unrelated streams via splitmix64 mixing.
  [[nodiscard]] Rng substream(std::uint64_t index) const noexcept {
    // Fold the 256-bit state and the index through splitmix64 finalizers;
    // the Rng constructor expands the folded seed back into 256 bits.
    auto mix = [](std::uint64_t z) noexcept {
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    std::uint64_t h = mix(index + 0x9e3779b97f4a7c15ULL);
    for (const std::uint64_t word : state_) h = mix(h ^ word);
    return Rng{h};
  }

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace rtlock::support
