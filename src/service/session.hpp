// Reusable engine sessions: parse/verify once, serve many.
//
// Every rtlock request is a pure function of (design content, seed, config),
// yet each CLI invocation used to re-parse and re-verify its input from
// scratch.  A DesignSession captures that per-design setup work as an
// immutable artifact — the parsed + verified design — keyed by a content
// hash over the source text, the parser options that shape the IR, and the
// engine pipeline version tag (so a binary upgrade can never serve a design
// parsed by an older front end).
//
// SessionCache is the thread-safe LRU in front of session construction:
//
//  * fetch() either returns a pinned shared_ptr to a cached session (hit) or
//    builds one (miss).  Concurrent fetches of the same content share one
//    build — late arrivals wait on the first builder's future instead of
//    duplicating parse work.
//  * entries are evicted least-recently-used once the byte budget is
//    exceeded; shared_ptr pinning means an evicted session stays alive for
//    every request still holding it, eviction only drops the cache's own
//    reference.
//  * hit/miss/eviction counters feed `GET /v1/stats` and the cache-sanity
//    assertions in CI.
//
// Determinism contract: a session is a pure function of (source, options);
// request results computed from a cached session are byte-identical to ones
// computed from a freshly built session (tests/service/api_test.cpp holds
// warm-vs-cold and eviction-then-refetch responses to byte equality).
#pragma once

#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "rtl/module.hpp"
#include "verilog/parser.hpp"

namespace rtlock::service {

/// Options that shape the parsed IR and therefore the content hash.
struct SessionOptions {
  std::string keyPortName = "lock_key";
};

/// Immutable parse/verify artifact for one design text.  Sessions are shared
/// across threads; nothing here is mutated after construction.
class DesignSession {
 public:
  /// Builds a session: parse (verification is always-on in parseDesign).
  /// Throws support::Error on malformed input, exactly like the direct parse
  /// path.
  DesignSession(std::string hash, std::string_view source, const SessionOptions& options);

  DesignSession(const DesignSession&) = delete;
  DesignSession& operator=(const DesignSession&) = delete;

  [[nodiscard]] const std::string& contentHash() const noexcept { return hash_; }
  [[nodiscard]] const SessionOptions& options() const noexcept { return options_; }
  [[nodiscard]] const rtl::Design& design() const noexcept { return design_; }
  [[nodiscard]] std::size_t moduleCount() const noexcept { return design_.moduleCount(); }
  [[nodiscard]] const rtl::Module& module(std::size_t index) const {
    return design_.module(index);
  }
  /// Module lookup by name; nullptr when absent.
  [[nodiscard]] const rtl::Module* findModule(std::string_view name) const noexcept;

  /// Clones every module into a fresh mutable Design (module order and top
  /// selection preserved) — the unit of work for requests that lock.
  [[nodiscard]] rtl::Design cloneDesign() const;

  /// Rough retained size in bytes (source, IR estimate and each module's
  /// signal-name index); the SessionCache budget accounting unit.  An
  /// estimate, not an audit — stable for a given session, never zero.
  [[nodiscard]] std::size_t approxBytes() const noexcept { return approxBytes_; }

 private:
  std::string hash_;
  SessionOptions options_;
  rtl::Design design_;
  std::size_t approxBytes_ = 0;
};

using SessionPtr = std::shared_ptr<const DesignSession>;

/// Thread-safe LRU cache of DesignSessions with a byte budget.
class SessionCache {
 public:
  static constexpr std::size_t kDefaultByteBudget = 256ull * 1024 * 1024;

  explicit SessionCache(std::size_t byteBudget = kDefaultByteBudget);

  SessionCache(const SessionCache&) = delete;
  SessionCache& operator=(const SessionCache&) = delete;

  /// Content identity of (source, options) under the current engine version
  /// tag: fnv1a64Hex over source text, key-port option and
  /// build_info::engineVersionTag(), NUL-separated.
  [[nodiscard]] static std::string contentHash(std::string_view source,
                                               const SessionOptions& options);

  struct FetchResult {
    SessionPtr session;
    bool hit = false;  // served from cache without building
  };

  /// Returns the session for (source, options), building it on miss.
  /// Concurrent misses for the same hash share a single build; a build
  /// failure (parse error) propagates to every waiter and caches nothing.
  [[nodiscard]] FetchResult fetch(std::string_view source, const SessionOptions& options);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;    // cached sessions (in-flight builds excluded)
    std::size_t bytes = 0;      // sum of cached approxBytes
    std::size_t byteBudget = 0;
  };
  [[nodiscard]] Stats stats() const;

  /// Drops every cached entry (pinned sessions stay alive with their
  /// holders).  Counts the dropped entries as evictions.
  void clear();

 private:
  struct Entry {
    std::string hash;
    std::shared_future<SessionPtr> session;  // ready, or being built
    std::size_t bytes = 0;                   // 0 until the build finishes
    bool building = true;
  };

  /// Evicts LRU entries (never in-flight builds, never `keepHash`) until the
  /// budget holds.  Caller holds the lock.
  void enforceBudgetLocked(const std::string& keepHash);

  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // front = most recently used
  std::map<std::string, std::list<Entry>::iterator, std::less<>> index_;
  std::size_t byteBudget_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace rtlock::service
