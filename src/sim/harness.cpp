#include "sim/harness.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

namespace rtlock::sim {

namespace {

using rtl::Module;
using rtl::PortDir;
using rtl::SignalId;

/// Bits [0, lanes) set: the active-lane mask of a partially filled chunk.
constexpr std::uint64_t laneMask(int lanes) noexcept {
  return lanes >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << lanes) - 1;
}

}  // namespace

Harness::Harness(const Module& golden, const Module& candidate)
    : goldenLocked_(golden.keyWidth() > 0),
      candidateLocked_(candidate.keyWidth() > 0),
      golden_(golden),
      candidate_(candidate) {
  // Single-clock designs: a clock is any signal driving a sequential process.
  std::optional<SignalId> goldenClock;
  for (const auto& process : golden.processes()) {
    if (process->kind == rtl::ProcessKind::Sequential) {
      goldenClock = process->clock;
      break;
    }
  }

  for (const SignalId id : golden.ports()) {
    const auto& signal = golden.signal(id);
    const auto other = candidate.findSignal(signal.name);
    RTLOCK_REQUIRE(other.has_value(),
                   "candidate module is missing port '" + signal.name + "'");
    RTLOCK_REQUIRE(candidate.signal(*other).width == signal.width,
                   "port width mismatch on '" + signal.name + "'");
    PortPair pair;
    pair.golden = id;
    pair.candidate = *other;
    pair.width = signal.width;
    pair.name = signal.name;
    if (signal.dir == PortDir::Input) {
      if (goldenClock && *goldenClock == id) {
        clock_ = pair;
      } else {
        inputs_.push_back(pair);
      }
    } else {
      outputs_.push_back(pair);
    }
  }
}

std::vector<std::vector<BitVector>> Harness::drawStimuli(const EquivalenceOptions& options,
                                                         support::Rng& rng) const {
  const int cycles = clock_.has_value() ? options.cyclesPerVector : 1;
  std::vector<std::vector<BitVector>> stimuli(static_cast<std::size_t>(options.vectors));
  for (auto& stimulus : stimuli) {
    stimulus.reserve(static_cast<std::size_t>(cycles) * inputs_.size());
    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (const auto& pair : inputs_) stimulus.push_back(BitVector::random(pair.width, rng));
    }
  }
  return stimuli;
}

std::optional<Mismatch> Harness::findMismatch(const BitVector& candidateKey,
                                              const EquivalenceOptions& options,
                                              support::Rng& rng) {
  const int cycles = clock_.has_value() ? options.cyclesPerVector : 1;
  std::vector<BitVector> laneValues;

  for (int base = 0; base < options.vectors; base += SlicedSim::kLanes) {
    const int active = std::min(SlicedSim::kLanes, options.vectors - base);
    // Draw the chunk's stimuli before evaluating any of it, in the
    // one-vector-at-a-time order (vector -> cycle -> input).
    EquivalenceOptions chunk = options;
    chunk.vectors = active;
    const auto stimuli = drawStimuli(chunk, rng);

    golden_.reset();
    candidate_.reset();
    if (candidateLocked_) candidate_.setKey(candidateKey);
    if (goldenLocked_) golden_.setKey(candidateKey);

    const std::uint64_t activeMask = laneMask(active);
    // Per-lane first mismatch in (cycle, phase, output) order; a
    // one-vector-at-a-time drive would fully simulate vector v before looking
    // at v+1, so the reported hit is the LOWEST mismatching lane's own first
    // hit.
    std::uint64_t found = 0;
    struct Hit {
      int output = 0;
      int cycle = 0;
    };
    std::array<Hit, SlicedSim::kLanes> hits{};

    const auto sample = [&](int cycle) {
      for (std::size_t o = 0; o < outputs_.size(); ++o) {
        const PortPair& pair = outputs_[o];
        const std::uint64_t* g = golden_.signalPlanes(pair.golden);
        const std::uint64_t* c = candidate_.signalPlanes(pair.candidate);
        std::uint64_t diff = 0;
        for (int b = 0; b < pair.width; ++b) diff |= g[b] ^ c[b];
        std::uint64_t fresh = diff & activeMask & ~found;
        found |= diff & activeMask;
        while (fresh != 0) {
          const int lane = std::countr_zero(fresh);
          fresh &= fresh - 1;
          hits[static_cast<std::size_t>(lane)] = {static_cast<int>(o), cycle};
        }
      }
    };

    for (int cycle = 0; cycle < cycles && found != activeMask; ++cycle) {
      for (std::size_t i = 0; i < inputs_.size(); ++i) {
        laneValues.clear();
        for (int lane = 0; lane < active; ++lane) {
          laneValues.push_back(stimuli[static_cast<std::size_t>(lane)]
                                      [static_cast<std::size_t>(cycle) * inputs_.size() + i]);
        }
        golden_.setLaneValues(inputs_[i].golden, laneValues);
        candidate_.setLaneValues(inputs_[i].candidate, laneValues);
      }
      golden_.settle();
      candidate_.settle();
      sample(cycle);
      if (clock_.has_value() && found != activeMask) {
        golden_.clockEdge(clock_->golden);
        candidate_.clockEdge(clock_->candidate);
        sample(cycle);
      }
    }
    if (found != 0) {
      const int lane = std::countr_zero(found);
      const Hit& hit = hits[static_cast<std::size_t>(lane)];
      return Mismatch{outputs_[static_cast<std::size_t>(hit.output)].name, base + lane,
                      hit.cycle};
    }
  }
  return std::nullopt;
}

double Harness::outputCorruption(const BitVector& key, const EquivalenceOptions& options,
                                 support::Rng& rng) {
  return outputCorruptionBatch(std::span<const BitVector>{&key, 1}, options, rng).front();
}

std::vector<double> Harness::outputCorruptionBatch(std::span<const BitVector> keys,
                                                   const EquivalenceOptions& options,
                                                   support::Rng& rng) {
  if (keys.empty()) return {};
  const int cycles = clock_.has_value() ? options.cyclesPerVector : 1;
  const auto stimuli = drawStimuli(options, rng);

  std::int64_t outputWidth = 0;
  for (const PortPair& pair : outputs_) outputWidth += pair.width;
  const std::int64_t totalBits = outputWidth * cycles * options.vectors;  // same per key
  std::vector<std::int64_t> differing(keys.size(), 0);

  // Lane L of a chunk starting at `base` is the (key, vector) pair number
  // base+L in key-major order, so each key's lanes are one contiguous run
  // per chunk and its popcounts use a single mask.
  const std::int64_t vectors = options.vectors;
  const std::int64_t lanesTotal = static_cast<std::int64_t>(keys.size()) * vectors;
  struct KeySlice {
    std::size_t key = 0;
    std::uint64_t mask = 0;
  };
  std::vector<KeySlice> slices;
  std::vector<BitVector> sliceKeys;
  std::vector<std::uint64_t> sliceMasks;
  std::vector<BitVector> laneValues;

  // When the lane count is a multiple of the vector count, every chunk maps
  // lane L to vector L % vectors — the same stimuli in the same lanes.  Two
  // things then become chunk-invariant and are computed once: the packed
  // per-lane stimulus arrays, and the golden sim's output planes (the
  // golden half runs with the zero key regardless of the chunk's keys), so
  // every chunk after the first costs only the candidate's tape passes.
  const bool mapInvariant = (SlicedSim::kLanes % static_cast<int>(vectors)) == 0;
  std::vector<std::vector<BitVector>> packedStimuli;
  if (mapInvariant) {
    const int lanes = static_cast<int>(std::min<std::int64_t>(SlicedSim::kLanes, lanesTotal));
    packedStimuli.resize(static_cast<std::size_t>(cycles) * inputs_.size());
    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (std::size_t i = 0; i < inputs_.size(); ++i) {
        auto& packed = packedStimuli[static_cast<std::size_t>(cycle) * inputs_.size() + i];
        packed.reserve(static_cast<std::size_t>(lanes));
        for (int lane = 0; lane < lanes; ++lane) {
          packed.push_back(stimuli[static_cast<std::size_t>(lane % vectors)]
                                  [static_cast<std::size_t>(cycle) * inputs_.size() + i]);
        }
      }
    }
  }
  std::vector<std::uint64_t> goldenCache(
      mapInvariant ? static_cast<std::size_t>(cycles) * static_cast<std::size_t>(outputWidth)
                   : 0);

  for (std::int64_t base = 0; base < lanesTotal; base += SlicedSim::kLanes) {
    const int active =
        static_cast<int>(std::min<std::int64_t>(SlicedSim::kLanes, lanesTotal - base));
    slices.clear();
    for (std::size_t k = static_cast<std::size_t>(base / vectors);
         k <= static_cast<std::size_t>((base + active - 1) / vectors); ++k) {
      const auto lo = std::max<std::int64_t>(static_cast<std::int64_t>(k) * vectors, base);
      const auto hi =
          std::min<std::int64_t>((static_cast<std::int64_t>(k) + 1) * vectors, base + active);
      slices.push_back({k, laneMask(static_cast<int>(hi - base)) ^
                               laneMask(static_cast<int>(lo - base))});
    }
    const bool runGolden = !mapInvariant || base == 0;

    // Without a clock the tape never latches state: every slot a settle
    // reads is rewritten by setLaneValues / setKeys / the tape itself, so
    // later chunks can skip the full-arena reset.
    const bool needReset = base == 0 || clock_.has_value();
    if (runGolden && needReset) {
      golden_.reset();  // golden keeps the zero key even when locked
    }
    if (needReset) candidate_.reset();
    if (candidateLocked_) {
      sliceKeys.clear();
      sliceMasks.clear();
      for (const KeySlice& slice : slices) {
        sliceKeys.push_back(keys[slice.key]);
        sliceMasks.push_back(slice.mask);
      }
      candidate_.setKeys(sliceKeys, sliceMasks);
    }

    for (int cycle = 0; cycle < cycles; ++cycle) {
      for (std::size_t i = 0; i < inputs_.size(); ++i) {
        if (mapInvariant) {
          // A partial final chunk reuses the full packed arrays: lanes
          // beyond `active` carry real stimuli but sit in no slice mask,
          // so their results are never scored.
          const auto& packed =
              packedStimuli[static_cast<std::size_t>(cycle) * inputs_.size() + i];
          if (runGolden) golden_.setLaneValues(inputs_[i].golden, packed);
          candidate_.setLaneValues(inputs_[i].candidate, packed);
          continue;
        }
        laneValues.clear();
        for (int lane = 0; lane < active; ++lane) {
          laneValues.push_back(stimuli[static_cast<std::size_t>((base + lane) % vectors)]
                                      [static_cast<std::size_t>(cycle) * inputs_.size() + i]);
        }
        golden_.setLaneValues(inputs_[i].golden, laneValues);
        candidate_.setLaneValues(inputs_[i].candidate, laneValues);
      }
      if (runGolden) golden_.settle();
      candidate_.settle();
      std::uint64_t* cache =
          mapInvariant
              ? goldenCache.data() + static_cast<std::size_t>(cycle) *
                                         static_cast<std::size_t>(outputWidth)
              : nullptr;
      std::int64_t cacheOffset = 0;
      for (const PortPair& pair : outputs_) {
        const std::uint64_t* g;
        if (runGolden) {
          g = golden_.signalPlanes(pair.golden);
          if (mapInvariant) std::copy(g, g + pair.width, cache + cacheOffset);
        } else {
          g = cache + cacheOffset;
        }
        cacheOffset += pair.width;
        const std::uint64_t* c = candidate_.signalPlanes(pair.candidate);
        for (int b = 0; b < pair.width; ++b) {
          const std::uint64_t diff = g[b] ^ c[b];
          if (diff == 0) continue;
          for (const KeySlice& slice : slices) {
            differing[slice.key] += std::popcount(diff & slice.mask);
          }
        }
      }
      if (clock_.has_value()) {
        if (runGolden) golden_.clockEdge(clock_->golden);
        candidate_.clockEdge(clock_->candidate);
      }
    }
  }

  std::vector<double> corruption(keys.size(), 0.0);
  for (std::size_t k = 0; k < keys.size(); ++k) {
    corruption[k] =
        totalBits == 0 ? 0.0 : static_cast<double>(differing[k]) / static_cast<double>(totalBits);
  }
  return corruption;
}

std::optional<Mismatch> findMismatch(const Module& golden, const Module& candidate,
                                     const BitVector& candidateKey,
                                     const EquivalenceOptions& options, support::Rng& rng) {
  Harness harness{golden, candidate};
  return harness.findMismatch(candidateKey, options, rng);
}

bool functionallyEquivalent(const Module& golden, const Module& candidate,
                            const BitVector& candidateKey, const EquivalenceOptions& options,
                            support::Rng& rng) {
  return !findMismatch(golden, candidate, candidateKey, options, rng).has_value();
}

double outputCorruption(const Module& golden, const Module& locked, const BitVector& key,
                        const EquivalenceOptions& options, support::Rng& rng) {
  Harness harness{golden, locked};
  return harness.outputCorruption(key, options, rng);
}

}  // namespace rtlock::sim
