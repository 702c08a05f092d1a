// Build-configuration floor for rtlock.
//
// The library leans on C++20 throughout (defaulted operator== on aggregates,
// std::span, designated initializers).  Under an older -std= the first
// symptom is a wall of template errors deep inside rng.hpp/holder.hpp, so
// this header turns a mis-configured build into one actionable diagnostic.
// Every header that exercises a C++20-only construct includes it.
#pragma once

#if defined(_MSVC_LANG)
#define RTLOCK_CPLUSPLUS _MSVC_LANG
#else
#define RTLOCK_CPLUSPLUS __cplusplus
#endif

#if RTLOCK_CPLUSPLUS < 202002L
#error \
    "rtlock requires C++20 (std::span, defaulted operator==). Build with -std=c++20 or newer; the CMake build enforces this via target_compile_features(rtlock PUBLIC cxx_std_20)."
#endif

// AddressSanitizer / ThreadSanitizer builds (GCC and Clang spellings).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RTLOCK_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RTLOCK_SANITIZED 1
#endif
#endif

namespace rtlock::support {

/// Language floor the library is built against, for tests and diagnostics.
inline constexpr long kRequiredCppStandard = 202002L;

/// The standard this translation unit was actually compiled under.
inline constexpr long kCompiledCppStandard = RTLOCK_CPLUSPLUS;

/// True under ASan or TSan: code that recycles memory compiles down to the
/// plain allocator there, so the sanitizer sees every free.
#ifdef RTLOCK_SANITIZED
inline constexpr bool kSanitizedBuild = true;
#else
inline constexpr bool kSanitizedBuild = false;
#endif

}  // namespace rtlock::support
