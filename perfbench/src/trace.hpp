// In-memory span recorder for the traced run.
//
// A span is (name, start, end, parent, op id, thread).  The benchmark opens
// spans around its own calls into each src/ layer — nothing inside the
// program is instrumented.  Spans go to per-thread buffers (no lock on the
// hot path) and are merged and written out once the run ends.  A null
// Tracer pointer turns every ScopedSpan into a no-op, so the same replay
// code runs traced and untraced.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] std::int64_t nowNs() noexcept;

struct Span {
  const char* name = "";  // static string
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t op = 0;      // op (cell / request) the span belongs to
  std::uint32_t thread = 0;
  bool error = false;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] std::uint64_t newId() noexcept;
  /// Thread-safe; appends to the calling thread's buffer.
  void record(const Span& span);
  /// Every recorded span, merged across threads, ordered by start time.
  [[nodiscard]] std::vector<Span> spans() const;
  /// One JSON object per line.
  void writeJsonLines(const std::string& path) const;

 private:
  struct Buffer {
    std::uint32_t thread = 0;
    std::vector<Span> spans;
  };
  Buffer& localBuffer();

  std::uint64_t generation_;
  std::atomic<std::uint64_t> nextId_{1};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// RAII span.  The parent defaults to the innermost open span on this
/// thread; pass an explicit parent for work handed to another thread.
class ScopedSpan {
 public:
  static constexpr std::uint64_t kCurrentParent = ~std::uint64_t{0};

  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op,
             std::uint64_t parent = kCurrentParent) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void fail() noexcept { span_.error = true; }
  /// Renames the span before it closes (e.g. a cache fetch that turned out
  /// to be a build).
  void rename(const char* name) noexcept { span_.name = name; }
  [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }
  /// Duration so far (or the final one after close()).
  [[nodiscard]] std::int64_t elapsedNs() const noexcept;
  /// Closes the span early; the destructor then does nothing.
  void close() noexcept;

 private:
  Tracer* tracer_;
  Span span_;
  std::uint64_t savedCurrent_ = 0;
  bool open_ = true;
};

/// Per span name: summed duration, summed self time (duration minus the
/// union of its direct children's intervals clipped to it, children on any
/// thread), call and error counts.
struct LayerTime {
  double totalMs = 0.0;
  double selfMs = 0.0;
  std::uint64_t calls = 0;
  std::uint64_t errors = 0;
};
[[nodiscard]] std::map<std::string, LayerTime> layerTimes(const std::vector<Span>& spans);

}  // namespace perfbench
