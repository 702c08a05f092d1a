// Server: real TCP round-trips against an ephemeral-port daemon — request
// framing end to end, malformed-input answers, early disconnects, the
// maxRequests self-drain, and requestStop().
#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <utility>

namespace rtlock::service {
namespace {

constexpr const char* kMixer =
    "module mixer (input [7:0] a, input [7:0] b, output [7:0] y);\\n"
    "  assign y = (a + b) ^ (a & b);\\nendmodule\\n";

/// Connects to 127.0.0.1:port, sends `text`, reads until EOF (the server
/// speaks Connection: close).  Empty `text` models an early disconnect.
[[nodiscard]] std::string httpExchange(int port, const std::string& text) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  timeval timeout{};
  timeout.tv_sec = 20;
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address)) != 0) {
    ::close(fd);
    return {};
  }
  std::size_t sent = 0;
  while (sent < text.size()) {
    const ssize_t n = ::send(fd, text.data() + sent, text.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string reply;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

[[nodiscard]] std::string getRequest(const std::string& target) {
  return "GET " + target + " HTTP/1.1\r\nHost: test\r\n\r\n";
}

[[nodiscard]] std::string postRequest(const std::string& target, const std::string& body) {
  return "POST " + target + " HTTP/1.1\r\nHost: test\r\nContent-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// Serves exactly `maxRequests` connections on an ephemeral port, runs
/// `client` against it, then `drained` on the drained server while it is
/// still alive, and returns run()'s exit code.
template <typename Client, typename Drained>
int withServer(ServeOptions options, Client&& client, Drained&& drained) {
  options.host = "127.0.0.1";
  options.port = 0;
  Server server{options};
  int exitCode = -1;
  std::thread runner{[&server, &exitCode] { exitCode = server.run(); }};
  client(server);
  runner.join();
  drained(server);
  return exitCode;
}

template <typename Client>
int withServer(ServeOptions options, Client&& client) {
  return withServer(std::move(options), std::forward<Client>(client), [](Server&) {});
}

TEST(ServerTest, HealthzOverTcp) {
  ServeOptions options;
  options.threads = 1;
  options.maxRequests = 1;
  const int exitCode = withServer(options, [](Server& server) {
    const std::string reply = httpExchange(server.port(), getRequest("/healthz"));
    EXPECT_EQ(reply.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << reply;
    EXPECT_NE(reply.find("\"status\": \"ok\""), std::string::npos) << reply;
  });
  EXPECT_EQ(exitCode, 0);  // maxRequests self-drain returns success
}

TEST(ServerTest, MaxRequestsAcceptsExactlyThatMany) {
  ServeOptions options;
  options.threads = 1;
  options.maxRequests = 3;
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  const int exitCode = withServer(
      options,
      [](Server& server) {
        for (int i = 0; i < 3; ++i) {
          EXPECT_NE(httpExchange(server.port(), getRequest("/healthz")), "");
        }
      },
      [&accepted, &rejected](Server& server) {
        accepted = server.acceptedConnections();
        rejected = server.rejectedConnections();
      });
  EXPECT_EQ(exitCode, 0);
  EXPECT_EQ(accepted, 3u);
  EXPECT_EQ(rejected, 0u);
}

TEST(ServerTest, MalformedRequestLineGets400) {
  ServeOptions options;
  options.threads = 1;
  options.maxRequests = 1;
  (void)withServer(options, [](Server& server) {
    const std::string reply = httpExchange(server.port(), "GARBAGE\r\n\r\n");
    EXPECT_EQ(reply.rfind("HTTP/1.1 400 ", 0), 0u) << reply;
  });
}

TEST(ServerTest, OversizedHeadersGet431) {
  ServeOptions options;
  options.threads = 1;
  options.maxRequests = 1;
  (void)withServer(options, [](Server& server) {
    const std::string reply = httpExchange(
        server.port(),
        "GET / HTTP/1.1\r\nX-Pad: " + std::string(20 * 1024, 'a') + "\r\n\r\n");
    EXPECT_EQ(reply.rfind("HTTP/1.1 431 ", 0), 0u) << reply;
  });
}

TEST(ServerTest, EarlyDisconnectDoesNotPoisonTheServer) {
  ServeOptions options;
  options.threads = 1;
  options.maxRequests = 2;
  options.socketTimeoutMs = 500;  // the empty connection times out quickly
  (void)withServer(options, [](Server& server) {
    (void)httpExchange(server.port(), "");  // connect, send nothing, close
    const std::string reply = httpExchange(server.port(), getRequest("/healthz"));
    EXPECT_NE(reply.find("200 OK"), std::string::npos) << reply;
  });
}

TEST(ServerTest, LockEndpointOverTcp) {
  ServeOptions options;
  options.threads = 1;
  options.maxRequests = 2;
  (void)withServer(options, [](Server& server) {
    const std::string body = std::string{"{\"source\": \""} + kMixer + "\", \"seed\": 7}";
    const std::string cold = httpExchange(server.port(), postRequest("/v1/lock", body));
    const std::string warm = httpExchange(server.port(), postRequest("/v1/lock", body));
    EXPECT_NE(cold.find("200 OK"), std::string::npos) << cold;
    EXPECT_NE(cold.find("X-Rtlock-Cache: miss"), std::string::npos);
    EXPECT_NE(warm.find("X-Rtlock-Cache: hit"), std::string::npos);
    // Identical payloads modulo the one cache header.
    const auto bodyOf = [](const std::string& reply) {
      return reply.substr(reply.find("\r\n\r\n"));
    };
    EXPECT_EQ(bodyOf(cold), bodyOf(warm));
  });
}

TEST(ServerTest, RequestStopDrainsAndReturnsZero) {
  ServeOptions options;
  options.threads = 1;
  const int exitCode = withServer(options, [](Server& server) {
    (void)httpExchange(server.port(), getRequest("/healthz"));
    server.requestStop();
  });
  EXPECT_EQ(exitCode, 0);
}

}  // namespace
}  // namespace rtlock::service
