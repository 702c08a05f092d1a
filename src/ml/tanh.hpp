// The MLP's tanh, owned by rtlock so that its bits do not depend on which
// libm variant the host picks at run time (src/ml/README.md, rule 6).
//
// It is fdlibm's expm1-based tanh with fused multiply-adds at fixed points
// (tanh.cpp lists them).  On x86-64 glibc 2.36 it returns std::tanh's bits
// when glibc runs its FMA expm1, which is what it picks on any CPU with FMA.
// Two paths give the same bits:
//   - tanh()/expm1(): scalar, std::fma at the fused points;
//   - tanhInPlace(): four lanes at a time with AVX2+FMA when the CPU has
//     both (checked once), the scalar path for the rest.
#pragma once

#include <span>

namespace rtlock::ml {

/// fdlibm expm1 with the fixed FMA points.  Exposed so tests can pin the
/// branches tanh never reaches (k = 1).
[[nodiscard]] double expm1(double x) noexcept;

/// fdlibm tanh through expm1() above.
[[nodiscard]] double tanh(double x) noexcept;

/// values[i] = tanh(values[i]) for every i, bit-identical to tanh().
void tanhInPlace(std::span<double> values) noexcept;

/// True when tanhInPlace runs its AVX2+FMA lanes on this CPU.
[[nodiscard]] bool tanhInPlaceVectorized() noexcept;

}  // namespace rtlock::ml
