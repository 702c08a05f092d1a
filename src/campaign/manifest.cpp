#include "campaign/manifest.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "support/diagnostics.hpp"
#include "support/files.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace rtlock::campaign {

namespace fs = std::filesystem;

namespace {

[[nodiscard]] std::string errnoText(int code) {
  return std::string{std::strerror(code)} + " (errno " + std::to_string(code) + ")";
}

[[nodiscard]] std::int64_t unixMillisNow() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] std::string claimContent(const std::string& owner) {
  support::JsonValue value;
  value.set("owner", owner);
  value.set("heartbeat_unix_ms", unixMillisNow());
  return value.dumpLine() + "\n";
}

/// The identity of one file version: inode plus modification time.  A steal
/// removes exactly the claim it judged stale, never a fresh claim that took
/// the same name in between (inode numbers are recycled, hence the mtime).
struct FileStamp {
  ino_t inode = 0;
  timespec mtime{};

  [[nodiscard]] bool operator==(const FileStamp& other) const noexcept {
    return inode == other.inode && mtime.tv_sec == other.mtime.tv_sec &&
           mtime.tv_nsec == other.mtime.tv_nsec;
  }
};

[[nodiscard]] std::optional<FileStamp> stampOf(const std::string& path) {
  struct stat info;
  if (::stat(path.c_str(), &info) != 0) return std::nullopt;
  return FileStamp{info.st_ino, info.st_mtim};
}

[[nodiscard]] double ageMs(const FileStamp& stamp) {
  const auto mtime = std::chrono::seconds{stamp.mtime.tv_sec} +
                     std::chrono::nanoseconds{stamp.mtime.tv_nsec};
  const auto age = std::chrono::system_clock::now().time_since_epoch() - mtime;
  return std::chrono::duration<double, std::milli>(age).count();
}

/// Removes `path` if it still is the file `judged` stamps: rename(2) moves
/// whatever holds the name to `tombstone` atomically, and the stamp check
/// tells whether that was the judged file.  A file that replaced it is linked
/// back under its name; link(2) never overwrites, so when yet another file
/// took the name meanwhile, the mistaken one is dropped rather than that one.
bool removeIfUnchanged(const std::string& path, const FileStamp& judged,
                       const std::string& tombstone) {
  if (::rename(path.c_str(), tombstone.c_str()) != 0) {
    if (errno == ENOENT) return false;
    throw support::Error{"cannot reclaim stale file " + path + ": " + errnoText(errno)};
  }
  const bool removed = stampOf(tombstone) == judged;
  if (!removed) static_cast<void>(::link(tombstone.c_str(), path.c_str()));
  ::unlink(tombstone.c_str());
  return removed;
}

/// `leaseMs <= 0` disables lease expiry: nothing is ever stale.
[[nodiscard]] bool isStale(const FileStamp& stamp, double leaseMs) {
  return leaseMs > 0.0 && ageMs(stamp) > leaseMs;
}

[[nodiscard]] std::string tombstonePath(const std::string& path, const std::string& owner) {
  static std::atomic<unsigned long> stealSeq{0};
  return path + ".steal-" + owner + "-" +
         std::to_string(stealSeq.fetch_add(1, std::memory_order_relaxed));
}

/// Steals the claim at `path` if it is still the file `judged` stamps.
bool stealIfUnchanged(const std::string& path, const FileStamp& judged, const std::string& owner,
                      double leaseMs) {
  // Stealers of one cell serialize on `<claim>.lock`, so no stealer can
  // remove the fresh claim a faster stealer created after judging the same
  // stale one: under the lock the claim is re-stamped before it is moved.
  const std::string lockPath = path + ".lock";
  const int fd = ::open(lockPath.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) {
    if (errno != EEXIST) {
      throw support::Error{"cannot create steal lock " + lockPath + ": " + errnoText(errno)};
    }
    // A rival is stealing.  A lock older than the lease is a dead stealer's.
    const std::optional<FileStamp> lock = stampOf(lockPath);
    if (lock.has_value() && isStale(*lock, leaseMs)) {
      removeIfUnchanged(lockPath, *lock, tombstonePath(lockPath, owner));
    }
    return false;
  }
  ::close(fd);
  bool stolen = false;
  try {
    stolen = stampOf(path) == judged &&
             removeIfUnchanged(path, judged, tombstonePath(path, owner));
  } catch (...) {
    ::unlink(lockPath.c_str());
    throw;
  }
  ::unlink(lockPath.c_str());
  return stolen;
}

}  // namespace

void writeManifest(const std::string& path, const Manifest& manifest) {
  support::JsonValue header;
  header.set("schema", kManifestSchema);
  header.set("design", manifest.identity.design);
  header.set("design_hash", manifest.identity.designHash);
  header.set("config", manifest.identity.config);
  header.set("config_hash", manifest.identity.configHash);
  header.set("setup", manifest.setup);
  header.set("cells", manifest.cells.size());

  std::string text = header.dumpLine() + "\n";
  for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
    const Cell& cell = manifest.cells[i];
    support::JsonValue line;
    line.set("index", i);
    line.set("cell", cell.id.key());
    line.set("algorithm", cell.id.algorithm);
    line.set("seed", cell.id.seed);
    line.set("label", cell.label);
    text += line.dumpLine() + "\n";
  }
  support::atomicWriteFile(path, text);
}

Manifest readManifest(const std::string& path) {
  std::string text;
  {
    std::ifstream in{path, std::ios::binary};
    if (!in) throw support::Error{"cannot open manifest " + path};
    text.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
  }

  Manifest manifest;
  std::size_t declaredCells = 0;
  std::size_t lineNo = 0;
  bool sawHeader = false;
  for (const std::string& line : support::split(text, '\n')) {
    ++lineNo;
    if (support::trim(line).empty()) continue;
    support::JsonValue value;
    try {
      value = support::parseJson(line);
    } catch (const support::Error& error) {
      // Manifests are written atomically, so torn lines cannot happen: any
      // parse failure is real corruption.
      throw support::Error{"manifest " + path + " is corrupt at line " + std::to_string(lineNo) +
                           ": " + error.what()};
    }
    if (!sawHeader) {
      const std::string schema = value.at("schema").asString();
      if (schema != kManifestSchema) {
        throw support::Error{"manifest " + path + " has unsupported schema \"" + schema +
                             "\" (expected " + std::string{kManifestSchema} + ")"};
      }
      manifest.identity.design = value.at("design").asString();
      manifest.identity.designHash = value.at("design_hash").asString();
      manifest.identity.config = value.at("config").asString();
      manifest.identity.configHash = value.at("config_hash").asString();
      manifest.setup = value.at("setup").asString();
      declaredCells = static_cast<std::size_t>(value.at("cells").asInt());
      sawHeader = true;
      continue;
    }
    const std::size_t index = static_cast<std::size_t>(value.at("index").asInt());
    if (index != manifest.cells.size()) {
      throw support::Error{"manifest " + path + " has non-contiguous cell index " +
                           std::to_string(index) + " at line " + std::to_string(lineNo) +
                           " (expected " + std::to_string(manifest.cells.size()) + ")"};
    }
    Cell cell;
    cell.id.designHash = manifest.identity.designHash;
    cell.id.configHash = manifest.identity.configHash;
    cell.id.algorithm = value.at("algorithm").asString();
    cell.id.seed = static_cast<std::uint64_t>(value.at("seed").asInt());
    cell.label = value.at("label").asString();
    const std::string key = value.at("cell").asString();
    if (key != cell.id.key()) {
      throw support::Error{"manifest " + path + " cell " + std::to_string(index) + " key \"" + key +
                           "\" does not match its header identity (expected \"" + cell.id.key() +
                           "\")"};
    }
    manifest.cells.push_back(std::move(cell));
  }
  if (!sawHeader) throw support::Error{"manifest " + path + " is empty"};
  if (manifest.cells.size() != declaredCells) {
    throw support::Error{"manifest " + path + " declares " + std::to_string(declaredCells) +
                         " cells but lists " + std::to_string(manifest.cells.size())};
  }
  return manifest;
}

std::string journalsDirFor(const std::string& manifestPath) {
  return manifestPath + ".journals";
}

std::vector<std::string> listJournals(const std::string& dir) {
  std::vector<std::string> paths;
  std::error_code ec;
  for (const fs::directory_entry& entry : fs::directory_iterator{dir, ec}) {
    if (entry.is_regular_file() && entry.path().extension() == ".jsonl") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

// ---- ClaimBoard ------------------------------------------------------------

ClaimBoard::ClaimBoard(const std::string& manifestPath, std::string ownerId, double leaseMs)
    : dir_(manifestPath + ".claims"), owner_(std::move(ownerId)), leaseMs_(leaseMs) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec && !fs::is_directory(dir_)) {
    throw support::Error{"cannot create claim directory " + dir_ + ": " + ec.message()};
  }
}

std::string ClaimBoard::claimPath(std::size_t index) const {
  return dir_ + "/cell-" + std::to_string(index) + ".claim";
}

std::string ClaimBoard::donePath(std::size_t index) const {
  return dir_ + "/cell-" + std::to_string(index) + ".done";
}

ClaimOutcome ClaimBoard::tryClaim(std::size_t index) {
  const std::string path = claimPath(index);
  ClaimOutcome outcome;

  // Bounded retries: each loop either wins the create, loses to a fresh
  // rival (Busy), or removes one stale claim.  A tiny cap is plenty — more
  // than one steal per attempt means rivals are making progress anyway.
  for (int round = 0; round < 4; ++round) {
    if (isDone(index)) {
      outcome.status = ClaimStatus::Done;
      return outcome;
    }
    const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd >= 0) {
      // Claim won.  The content (owner + heartbeat) is advisory; write it
      // best-effort and tolerate a torn result — freshness rides on mtime.
      const std::string content = claimContent(owner_);
      std::size_t offset = 0;
      while (offset < content.size()) {
        const ::ssize_t written =
            ::write(fd, content.data() + offset, content.size() - offset);
        if (written < 0) {
          if (errno == EINTR) continue;
          break;
        }
        offset += static_cast<std::size_t>(written);
      }
      ::close(fd);
      outcome.status = ClaimStatus::Acquired;
      return outcome;
    }
    if (errno != EEXIST) {
      // Anything but "someone else holds it" is an infrastructure fault
      // (missing directory, EACCES, EROFS, ...) — never mask it as Busy.
      throw support::Error{"cannot create claim file " + path + ": " + errnoText(errno)};
    }

    // A vanished claim is not stale — the next O_CREAT|O_EXCL attempt
    // settles who owns the cell now.
    const std::optional<FileStamp> judged = stampOf(path);
    if (!judged.has_value()) continue;
    bool steal = isStale(*judged, leaseMs_);
    if (!steal) {
      // A claim this owner id left behind is an orphan of our own previous
      // incarnation (same host, restarted worker): reclaim it immediately
      // instead of waiting out the lease.
      const std::optional<std::string> holder = claimOwner(index);
      steal = holder.has_value() && *holder == owner_;
    }
    if (!steal) {
      outcome.status = ClaimStatus::Busy;
      return outcome;
    }
    if (stealIfUnchanged(path, *judged, owner_, leaseMs_)) outcome.stolen = true;
  }
  outcome.status = ClaimStatus::Busy;
  return outcome;
}

void ClaimBoard::heartbeat(std::size_t index) const {
  support::atomicWriteFile(claimPath(index), claimContent(owner_),
                           support::SyncMode::ProcessCrashOnly);
}

void ClaimBoard::release(std::size_t index) const noexcept {
  ::unlink(claimPath(index).c_str());
}

void ClaimBoard::markDone(std::size_t index, const std::string& status) const {
  support::JsonValue value;
  value.set("owner", owner_);
  value.set("status", status);
  value.set("done_unix_ms", unixMillisNow());
  // Process-crash-only durability: a done marker lost to a power cut just
  // causes one safe recompute, the same window as a crash between journal
  // append and markDone.
  support::atomicWriteFile(donePath(index), value.dumpLine() + "\n",
                           support::SyncMode::ProcessCrashOnly);
}

bool ClaimBoard::isDone(std::size_t index) const {
  std::error_code ec;
  return fs::exists(donePath(index), ec);
}

std::optional<std::string> ClaimBoard::claimOwner(std::size_t index) const {
  std::ifstream in{claimPath(index), std::ios::binary};
  if (!in) return std::nullopt;
  std::string text;
  text.assign(std::istreambuf_iterator<char>{in}, std::istreambuf_iterator<char>{});
  try {
    const support::JsonValue value = support::parseJson(support::trim(text));
    return value.at("owner").asString();
  } catch (const support::Error&) {
    return std::nullopt;  // torn or garbage claim content — tolerated
  }
}

std::string defaultWorkerId() {
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) != 0) {
    std::strncpy(host, "host", sizeof(host) - 1);
  }
  return std::string{host} + "-" + std::to_string(static_cast<long>(::getpid()));
}

}  // namespace rtlock::campaign
