// Build identity: the version tag and capability list every provenance
// surface shares.
//
// One implementation feeds four consumers — `rtlock --version`, the
// `GET /healthz` endpoint, the `Server:` response header, and the
// `generator` field stamped into report documents — so a deployed binary can
// always be traced from any artifact it produced.  The engine tag
// additionally versions the parser/verifier pipeline for cache keying: a
// SessionCache key hashes it alongside the source text, so a binary whose
// front end changed can never serve a design parsed by an older one.
#pragma once

#include <string>
#include <vector>

namespace rtlock::service {

struct BuildInfo {
  std::string version;                   // semantic project version ("0.1.0")
  std::vector<std::string> simBackends;  // execution backends compiled in
};

/// The binary's build identity (stable for the process lifetime).
[[nodiscard]] const BuildInfo& buildInfo() noexcept;

/// One-line provenance stamp: "rtlock <version> (sim: a,b)".  This is the
/// `generator` value in report documents and the --version headline.
[[nodiscard]] const std::string& generatorTag() noexcept;

/// Parser/verifier pipeline tag mixed into every SessionCache content hash.
/// Bump the embedded revision whenever parse/verify output for the same
/// source can change, so upgraded binaries rebuild rather than trusting
/// sessions keyed by an older pipeline.
[[nodiscard]] const std::string& engineVersionTag() noexcept;

}  // namespace rtlock::service
