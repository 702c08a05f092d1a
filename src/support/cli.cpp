#include "support/cli.hpp"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstdlib>

#include "support/diagnostics.hpp"
#include "support/strings.hpp"

namespace rtlock::support {

CliArgs::CliArgs(int argc, const char* const* argv, std::vector<std::string> knownFlags) {
  const auto isKnown = [&knownFlags](std::string_view name) {
    return std::find(knownFlags.begin(), knownFlags.end(), name) != knownFlags.end();
  };

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (!startsWith(arg, "--")) {
      positional_.emplace_back(arg);
      continue;
    }
    const std::string_view body = arg.substr(2);
    const auto equals = body.find('=');
    std::string name{equals == std::string_view::npos ? body : body.substr(0, equals)};
    if (!isKnown(name)) {
      throw Error{"unknown flag --" + name};
    }
    if (equals != std::string_view::npos) {
      values_[name] = std::string{body.substr(equals + 1)};
    } else if (i + 1 < argc && !startsWith(argv[i + 1], "--")) {
      values_[name] = argv[++i];
    } else {
      values_[name] = "true";
    }
  }
}

bool CliArgs::has(std::string_view name) const { return values_.find(name) != values_.end(); }

std::string CliArgs::get(std::string_view name, std::string_view fallback) const {
  const auto it = values_.find(name);
  return it == values_.end() ? std::string{fallback} : it->second;
}

std::int64_t CliArgs::getInt(std::string_view name, std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  std::int64_t value = 0;
  const auto& text = it->second;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw Error{"flag --" + it->first + " expects an integer, got '" + text + "'"};
  }
  return value;
}

std::uint64_t CliArgs::getU64(std::string_view name, std::uint64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const auto value = parseU64(it->second);
  if (!value.has_value()) {
    throw Error{"flag --" + it->first + " expects a non-negative integer, got '" + it->second +
                "'"};
  }
  return *value;
}

std::optional<std::uint64_t> parseU64(std::string_view text) {
  // from_chars<unsigned> already rejects signs and leading whitespace; the
  // end-pointer check rejects trailing junk ("3x"), and errc catches
  // overflow — exactly the failure modes stoull-based parsing let through.
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

double CliArgs::getDouble(std::string_view name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  try {
    std::size_t used = 0;
    const double value = std::stod(it->second, &used);
    if (used != it->second.size()) throw Error{"trailing junk"};
    return value;
  } catch (const std::exception&) {
    throw Error{"flag --" + it->first + " expects a number, got '" + it->second + "'"};
  }
}

int requestedThreads(const CliArgs& args) {
  if (args.has("threads")) {
    const std::int64_t value = args.getInt("threads", 0);
    if (value < 0 || value > kMaxThreads) {
      throw Error("flag --threads expects an integer in [0, 4096], got '" +
                  args.get("threads", "") + "'");
    }
    return static_cast<int>(value);
  }
  if (const char* env = std::getenv("RTLOCK_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long value = std::strtol(env, &end, 10);
    if (end == env || *end != '\0' || errno == ERANGE || value < 0 || value > kMaxThreads) {
      throw Error("RTLOCK_THREADS expects an integer in [0, 4096], got \"" + std::string{env} +
                  "\"");
    }
    return static_cast<int>(value);
  }
  return 0;
}

bool CliArgs::getBool(std::string_view name, bool fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  const std::string lowered = toLower(it->second);
  if (lowered == "true" || lowered == "1" || lowered == "yes" || lowered == "on") return true;
  if (lowered == "false" || lowered == "0" || lowered == "no" || lowered == "off") return false;
  throw Error{"flag --" + it->first + " expects a boolean, got '" + it->second + "'"};
}

}  // namespace rtlock::support
