// DesignSession + SessionCache: content hashing, LRU eviction under a byte
// budget, shared_ptr pinning, in-flight build dedup and failure propagation.
#include "service/session.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "designs/registry.hpp"
#include "rtl/stats.hpp"
#include "support/diagnostics.hpp"
#include "verilog/writer.hpp"

namespace rtlock::service {
namespace {

constexpr const char* kMixer = R"(
module mixer (input [7:0] a, input [7:0] b, output [7:0] y);
  assign y = (a + b) ^ (a & b);
endmodule
)";

constexpr const char* kAdder = R"(
module adder (input [7:0] a, input [7:0] b, output [7:0] y);
  assign y = a + b;
endmodule
)";

TEST(SessionHashTest, DeterministicAndContentSensitive) {
  const SessionOptions options;
  EXPECT_EQ(SessionCache::contentHash(kMixer, options),
            SessionCache::contentHash(kMixer, options));
  EXPECT_NE(SessionCache::contentHash(kMixer, options),
            SessionCache::contentHash(kAdder, options));
  // The parser options shape the IR, so they are part of the identity.
  SessionOptions renamed;
  renamed.keyPortName = "secret_key";
  EXPECT_NE(SessionCache::contentHash(kMixer, options),
            SessionCache::contentHash(kMixer, renamed));
}

TEST(SessionTest, ApproxBytesCountsTheNameIndex) {
  // Source bytes, 64 per expression node, and the exact size of each
  // module's signal-name index: the cache budget covers what a session holds.
  const std::string source = verilog::writeModule(designs::makeBenchmark("N_1023"));
  SessionCache cache;
  const SessionPtr session = cache.fetch(source, SessionOptions{}).session;
  ASSERT_EQ(session->moduleCount(), 1u);
  const rtl::Module& module = session->module(0);
  EXPECT_GE(module.nameIndexBytes(), 2 * module.signalCount() * sizeof(rtl::SignalId));
  EXPECT_EQ(session->approxBytes(),
            source.size() + static_cast<std::size_t>(rtl::computeStats(module).exprNodes) * 64 +
                module.nameIndexBytes());
}

TEST(SessionTest, BuildsSessionForEveryModule) {
  const SessionCache::FetchResult fetched = [] {
    SessionCache cache;
    return cache.fetch(kMixer, SessionOptions{});
  }();
  const SessionPtr& session = fetched.session;
  ASSERT_NE(session, nullptr);
  EXPECT_FALSE(fetched.hit);
  ASSERT_EQ(session->moduleCount(), 1u);
  EXPECT_EQ(session->module(0).name(), "mixer");
  EXPECT_NE(session->findModule("mixer"), nullptr);
  EXPECT_EQ(session->findModule("nope"), nullptr);
  // The size estimate is sane.
  EXPECT_GE(session->approxBytes(), 1024u);
  // The session outlives its cache (the fixture's cache is already gone).
  rtl::Design clone = session->cloneDesign();
  ASSERT_EQ(clone.moduleCount(), 1u);
  EXPECT_EQ(clone.module(0).name(), "mixer");
}

TEST(SessionCacheTest, SecondFetchIsAHit) {
  SessionCache cache;
  const auto first = cache.fetch(kMixer, SessionOptions{});
  const auto second = cache.fetch(kMixer, SessionOptions{});
  EXPECT_FALSE(first.hit);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(first.session.get(), second.session.get());  // same artifact
  const SessionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(SessionCacheTest, DifferentOptionsAreDifferentEntries) {
  SessionCache cache;
  SessionOptions renamed;
  renamed.keyPortName = "secret_key";
  const auto a = cache.fetch(kMixer, SessionOptions{});
  const auto b = cache.fetch(kMixer, renamed);
  EXPECT_FALSE(b.hit);
  EXPECT_NE(a.session.get(), b.session.get());
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SessionCacheTest, TinyBudgetEvictsLeastRecentlyUsed) {
  // A 1-byte budget can hold no completed session: every insert evicts.
  SessionCache cache{1};
  const auto a = cache.fetch(kMixer, SessionOptions{});
  const auto b = cache.fetch(kAdder, SessionOptions{});
  EXPECT_FALSE(a.hit);
  EXPECT_FALSE(b.hit);
  const auto aAgain = cache.fetch(kMixer, SessionOptions{});
  EXPECT_FALSE(aAgain.hit);  // was evicted, rebuilt
  const SessionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_GE(stats.evictions, 2u);
  // Pinning: the evicted sessions stay alive and equivalent for holders.
  EXPECT_EQ(a.session->contentHash(), aAgain.session->contentHash());
  EXPECT_EQ(a.session->module(0).name(), aAgain.session->module(0).name());
}

TEST(SessionCacheTest, ClearDropsEntriesAndCountsEvictions) {
  SessionCache cache;
  (void)cache.fetch(kMixer, SessionOptions{});
  (void)cache.fetch(kAdder, SessionOptions{});
  cache.clear();
  const SessionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.evictions, 2u);
  // The cache keeps working after clear().
  EXPECT_FALSE(cache.fetch(kMixer, SessionOptions{}).hit);
}

TEST(SessionCacheTest, ParseFailureCachesNothing) {
  SessionCache cache;
  EXPECT_THROW((void)cache.fetch("module broken (", SessionOptions{}), support::Error);
  // The failure was not cached: the next fetch tries (and fails) again.
  EXPECT_THROW((void)cache.fetch("module broken (", SessionOptions{}), support::Error);
  const SessionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.misses, 2u);
  // A good design still builds.
  EXPECT_FALSE(cache.fetch(kMixer, SessionOptions{}).hit);
}

TEST(SessionCacheTest, ConcurrentFetchesShareOneBuild) {
  SessionCache cache;
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<SessionPtr> sessions(kThreads);
  std::atomic<int> hits{0};
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&cache, &sessions, &hits, i] {
      const auto fetched = cache.fetch(kMixer, SessionOptions{});
      sessions[static_cast<std::size_t>(i)] = fetched.session;
      if (fetched.hit) ++hits;
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Exactly one build happened; everyone got the same pinned artifact.
  for (const SessionPtr& session : sessions) {
    ASSERT_NE(session, nullptr);
    EXPECT_EQ(session.get(), sessions.front().get());
  }
  const SessionCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(hits.load()));
  EXPECT_EQ(stats.hits + stats.misses, static_cast<std::uint64_t>(kThreads));
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SessionCacheTest, ConcurrentMixedDesignsStayConsistent) {
  SessionCache cache{1};  // eviction churn on every insert
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&cache, &failures, i] {
      for (int round = 0; round < 4; ++round) {
        const char* source = ((i + round) % 2 == 0) ? kMixer : kAdder;
        const auto fetched = cache.fetch(source, SessionOptions{});
        if (fetched.session == nullptr || fetched.session->moduleCount() != 1) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

}  // namespace
}  // namespace rtlock::service
