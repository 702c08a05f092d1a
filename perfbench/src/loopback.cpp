#include "loopback.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cstdlib>
#include <cstring>

#include "trace.hpp"

namespace perfbench {

std::uint64_t bodyDigest(std::string_view text) noexcept {
  // FNV-1a over 8-byte words (then the tail bytes): a content digest fast
  // enough that hashing a megabyte body does not hold up the client loop.
  std::uint64_t hash = 0xcbf29ce484222325ULL ^ text.size();
  std::size_t i = 0;
  for (; i + 8 <= text.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, text.data() + i, 8);
    hash = (hash ^ word) * 0x100000001b3ULL;
    hash ^= hash >> 29;
  }
  for (; i < text.size(); ++i) hash = (hash ^ static_cast<unsigned char>(text[i])) * 0x100000001b3ULL;
  return hash;
}

Exchange exchange(int port, const std::string& request, std::string& buffer) {
  Exchange result;
  const std::int64_t start = nowNs();
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return result;
  // A server that stops answering fails the op instead of hanging the run.
  const timeval timeout{30, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  bool ok = ::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) == 0;
  std::size_t sent = 0;
  while (ok && sent < request.size()) {
    const ssize_t wrote = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    ok = wrote > 0;
    if (ok) sent += static_cast<std::size_t>(wrote);
  }
  buffer.clear();
  char chunk[64 * 1024];
  while (ok) {
    const ssize_t got = ::recv(fd, chunk, sizeof(chunk), 0);
    if (got < 0) ok = false;
    if (got <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(got));
  }
  const std::int64_t end = nowNs();
  ::close(fd);
  result.latencyMs = static_cast<double>(end - start) / 1e6;
  const std::size_t headEnd = buffer.find("\r\n\r\n");
  if (!ok || headEnd == std::string::npos || buffer.rfind("HTTP/1.1 ", 0) != 0) return result;
  result.transportOk = true;
  result.status = std::atoi(buffer.c_str() + 9);
  const std::string_view head{buffer.data(), headEnd};
  const std::size_t header = head.find("\r\nX-Rtlock-Cache: ");
  if (header != std::string_view::npos) {
    const std::size_t valueStart = header + std::strlen("\r\nX-Rtlock-Cache: ");
    result.cacheHeader = std::string{head.substr(valueStart, head.find("\r\n", valueStart) - valueStart)};
  }
  const std::string_view body = std::string_view{buffer}.substr(headEnd + 4);
  const std::size_t length = head.find("\r\nContent-Length: ");
  if (length == std::string_view::npos ||
      std::strtoull(buffer.c_str() + length + std::strlen("\r\nContent-Length: "), nullptr, 10) !=
          body.size()) {
    result.transportOk = false;  // torn: fewer (or more) body bytes than announced
    return result;
  }
  result.bodyHash = bodyDigest(body);
  result.bodyLength = body.size();
  return result;
}

}  // namespace perfbench
