// Shared work manifest for multi-host campaigns (rtlock-manifest/v1).
//
// A manifest is one file, written once, listing every cell of a campaign
// grid by its row identity.  Workers on any number of hosts point at the
// same manifest (on a shared filesystem) and claim cells independently —
// the determinism contract (identical row identity ⇒ identical bytes) means
// they need zero coordination beyond the claim files:
//
//  * the manifest itself is immutable and written atomically (temp + fsync
//    + rename, support::atomicWriteFile): a reader either sees no manifest
//    or the complete cell list, never a prefix;
//  * a worker claims cell i by creating `<manifest>.claims/cell-i.claim`
//    with O_CREAT|O_EXCL — the filesystem's native mutual exclusion.  EEXIST
//    means another worker holds the cell; any other errno is an
//    infrastructure error and fails loudly (never silently treated as
//    "busy");
//  * the claim file carries the owner id and an acquisition timestamp, but
//    *freshness* is judged by the file's mtime: heartbeat() atomically
//    rewrites the claim, bumping mtime, and a claim older than the lease is
//    presumed orphaned by a dead worker and may be stolen.  The steal itself
//    is race-free: stealers of a cell serialize on `cell-i.claim.lock`
//    (O_CREAT|O_EXCL; a lock older than the lease is a dead stealer's and is
//    reaped), re-check under it that the claim is still the exact file
//    (inode + mtime) they judged stale, rename it to a unique tombstone, and
//    re-create via O_CREAT|O_EXCL — so a stealer never removes the fresh
//    claim of a faster one;
//  * a completed cell gets `<manifest>.claims/cell-i.done` (atomic rename),
//    the cross-worker "skip this" signal.  A crash between journal append
//    and done-marker write, or a steal that races a slow owner, can at
//    worst cause a double compute — which is safe: both workers journal
//    byte-identical rows and the merge tool deduplicates them.
//
// Torn claim files (crash mid-write, or a heartbeat raced by a steal) are
// tolerated: the content is advisory, mtime-based lease expiry still
// applies, and empty/garbage claims age out like any other.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "campaign/runner.hpp"

namespace rtlock::campaign {

inline constexpr const char* kManifestSchema = "rtlock-manifest/v1";

/// The immutable campaign description a manifest file carries: identity,
/// the human-readable row-config text (`setup`) reports are rebuilt from,
/// and every cell in grid order.
struct Manifest {
  CampaignIdentity identity;
  std::string setup;  // report row config text, e.g. "samples=1 rounds=30 budget=75%"
  std::vector<Cell> cells;
};

/// Writes the manifest atomically (temp + fsync + rename).  Concurrent
/// writers racing to create the same grid's manifest are harmless: both
/// serialize identical bytes and rename is atomic.
void writeManifest(const std::string& path, const Manifest& manifest);

/// Parses and validates a manifest: schema, contiguous cell indices, and
/// every cell key consistent with the header hashes.  Throws support::Error
/// on a missing or malformed file.
[[nodiscard]] Manifest readManifest(const std::string& path);

/// The conventional per-worker journal directory for a manifest
/// (`<manifest>.journals`); `rtlock work` defaults its journal there so the
/// final merge can find every worker's rows.
[[nodiscard]] std::string journalsDirFor(const std::string& manifestPath);

/// All `*.jsonl` files in `dir`, sorted (deterministic merge order); empty
/// when the directory does not exist.
[[nodiscard]] std::vector<std::string> listJournals(const std::string& dir);

// ---- cell claiming ---------------------------------------------------------

enum class ClaimStatus {
  Acquired,  // this worker now owns the cell
  Busy,      // another worker holds a fresh claim
  Done,      // the cell has a done marker — skip it
};

struct ClaimOutcome {
  ClaimStatus status = ClaimStatus::Busy;
  bool stolen = false;  // Acquired by reclaiming a stale lease
};

/// A worker's view of a manifest's claim directory.  Thread-safe: all state
/// is immutable after construction, every operation maps to atomic
/// filesystem primitives.
class ClaimBoard {
 public:
  /// Creates `<manifest>.claims/` if absent.  `leaseMs <= 0` disables lease
  /// expiry entirely (claims are never stolen).
  ClaimBoard(const std::string& manifestPath, std::string ownerId, double leaseMs);

  [[nodiscard]] const std::string& dir() const noexcept { return dir_; }
  [[nodiscard]] const std::string& owner() const noexcept { return owner_; }

  /// Attempts to claim cell `index` (see the protocol above).  A stale or
  /// orphaned-by-self claim is stolen; a fresh foreign claim reports Busy.
  [[nodiscard]] ClaimOutcome tryClaim(std::size_t index);

  /// Refreshes the lease on a claim this worker holds (atomic rewrite, so a
  /// concurrent reader never sees a torn heartbeat).
  void heartbeat(std::size_t index) const;

  /// Drops a claim this worker holds without completing the cell (shutdown
  /// drain): the cell becomes immediately claimable again.
  void release(std::size_t index) const noexcept;

  /// Marks cell `index` complete (atomic done marker).  Idempotent.
  void markDone(std::size_t index, const std::string& status) const;
  [[nodiscard]] bool isDone(std::size_t index) const;

  /// Owner recorded in the cell's claim file; nullopt when unclaimed or the
  /// claim content is torn (tolerated — freshness never depends on it).
  [[nodiscard]] std::optional<std::string> claimOwner(std::size_t index) const;

  [[nodiscard]] std::string claimPath(std::size_t index) const;
  [[nodiscard]] std::string donePath(std::size_t index) const;

 private:
  std::string dir_;
  std::string owner_;
  double leaseMs_;
};

/// Default worker identity: "<hostname>-<pid>".
[[nodiscard]] std::string defaultWorkerId();

}  // namespace rtlock::campaign
