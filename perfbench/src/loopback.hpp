// Client side of one loopback HTTP exchange: connect, send the request,
// read to EOF, and keep what the checks need (status, X-Rtlock-Cache, body
// length and digest) instead of the body itself.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace perfbench {

struct Exchange {
  bool transportOk = false;  // false: refused, torn or malformed answer
  int status = 0;
  std::string cacheHeader;
  std::uint64_t bodyHash = 0;
  std::size_t bodyLength = 0;
  double latencyMs = 0.0;  // connect to last byte
};

/// 64-bit content digest (bodies are compared by length and this digest).
[[nodiscard]] std::uint64_t bodyDigest(std::string_view text) noexcept;

/// One request on a fresh connection to 127.0.0.1:port.  `buffer` is the
/// caller's reusable receive storage.
[[nodiscard]] Exchange exchange(int port, const std::string& request, std::string& buffer);

}  // namespace perfbench
