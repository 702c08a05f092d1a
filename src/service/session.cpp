#include "service/session.hpp"

#include <utility>

#include "rtl/stats.hpp"
#include "service/build_info.hpp"
#include "support/strings.hpp"

namespace rtlock::service {

DesignSession::DesignSession(std::string hash, std::string_view source,
                             const SessionOptions& options)
    : hash_(std::move(hash)), options_(options) {
  verilog::ParserOptions parserOptions;
  parserOptions.keyPortName = options_.keyPortName;
  design_ = verilog::parseDesign(source, parserOptions);  // verification always-on

  std::size_t bytes = source.size();
  for (std::size_t i = 0; i < design_.moduleCount(); ++i) {
    // IR size proxy: the expression-node count scales with every per-node
    // allocation the module owns; the signal-name index is counted exactly.
    const rtl::Module& module = design_.module(i);
    bytes += static_cast<std::size_t>(rtl::computeStats(module).exprNodes) * 64 +
             module.nameIndexBytes();
  }
  // Floor: even an empty-ish design occupies cache bookkeeping.
  approxBytes_ = bytes < 1024 ? 1024 : bytes;
}

const rtl::Module* DesignSession::findModule(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < design_.moduleCount(); ++i) {
    if (design_.module(i).name() == name) return &design_.module(i);
  }
  return nullptr;
}

rtl::Design DesignSession::cloneDesign() const {
  rtl::Design clone;
  for (std::size_t i = 0; i < design_.moduleCount(); ++i) {
    clone.addModule(design_.module(i).clone());
  }
  clone.setTop(design_.top().name());
  return clone;
}

SessionCache::SessionCache(std::size_t byteBudget) : byteBudget_(byteBudget) {}

std::string SessionCache::contentHash(std::string_view source, const SessionOptions& options) {
  std::string keyed;
  keyed.reserve(source.size() + options.keyPortName.size() + 64);
  keyed.append(source);
  keyed.push_back('\0');
  keyed.append(options.keyPortName);
  keyed.push_back('\0');
  keyed.append(engineVersionTag());
  return support::fnv1a64Hex(keyed);
}

SessionCache::FetchResult SessionCache::fetch(std::string_view source,
                                              const SessionOptions& options) {
  std::string hash = contentHash(source, options);

  std::shared_future<SessionPtr> pending;
  std::promise<SessionPtr> promise;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto found = index_.find(hash);
    if (found != index_.end()) {
      // Hit (possibly on an in-flight build — sharing the build still skips
      // every byte of parse work for this caller).
      lru_.splice(lru_.begin(), lru_, found->second);
      ++hits_;
      pending = found->second->session;
    } else {
      ++misses_;
      Entry entry;
      entry.hash = hash;
      entry.session = promise.get_future().share();
      entry.building = true;
      lru_.push_front(std::move(entry));
      index_.emplace(hash, lru_.begin());
    }
  }
  if (pending.valid()) return {pending.get(), true};

  // Build outside the lock: concurrent fetches of *other* designs proceed,
  // concurrent fetches of this design wait on the shared future.
  SessionPtr session;
  try {
    session = std::make_shared<const DesignSession>(hash, source, options);
  } catch (...) {
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      const auto found = index_.find(hash);
      if (found != index_.end()) {
        lru_.erase(found->second);
        index_.erase(found);
      }
    }
    promise.set_exception(std::current_exception());
    throw;
  }
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    const auto found = index_.find(hash);
    if (found != index_.end()) {
      found->second->bytes = session->approxBytes();
      found->second->building = false;
      bytes_ += session->approxBytes();
    }
    promise.set_value(session);
    enforceBudgetLocked(hash);
  }
  return {std::move(session), false};
}

void SessionCache::enforceBudgetLocked(const std::string& keepHash) {
  // Walk from the LRU tail; skip in-flight builds (their cost is unknown and
  // their waiters hold the future anyway) and the entry that triggered the
  // sweep — a single design larger than the whole budget must still be
  // served, it just will not keep neighbours resident.
  auto it = lru_.end();
  while (bytes_ > byteBudget_ && it != lru_.begin()) {
    --it;
    if (it->building || it->hash == keepHash) continue;
    bytes_ -= it->bytes;
    index_.erase(it->hash);
    it = lru_.erase(it);
    ++evictions_;
  }
}

SessionCache::Stats SessionCache::stats() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  Stats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = evictions_;
  stats.bytes = bytes_;
  stats.byteBudget = byteBudget_;
  for (const Entry& entry : lru_) {
    if (!entry.building) ++stats.entries;
  }
  return stats;
}

void SessionCache::clear() {
  const std::lock_guard<std::mutex> lock{mutex_};
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (it->building) {
      ++it;
      continue;
    }
    bytes_ -= it->bytes;
    index_.erase(it->hash);
    it = lru_.erase(it);
    ++evictions_;
  }
}

}  // namespace rtlock::service
