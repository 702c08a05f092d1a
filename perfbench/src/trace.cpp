#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <unordered_map>

#include "support/diagnostics.hpp"
#include "support/json.hpp"

namespace perfbench {

namespace {

std::atomic<std::uint64_t> gGeneration{1};
std::atomic<std::uint32_t> gThreadCounter{1};

thread_local std::uint64_t tlsCurrentSpan = 0;
thread_local std::uint64_t tlsBufferGeneration = 0;
thread_local void* tlsBuffer = nullptr;

std::uint32_t threadNumber() {
  thread_local const std::uint32_t number = gThreadCounter.fetch_add(1);
  return number;
}

}  // namespace

std::int64_t nowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Tracer() : generation_(gGeneration.fetch_add(1)) {}

std::uint64_t Tracer::newId() noexcept {
  return nextId_.fetch_add(1, std::memory_order_relaxed);
}

Tracer::Buffer& Tracer::localBuffer() {
  if (tlsBufferGeneration != generation_ || tlsBuffer == nullptr) {
    const std::lock_guard<std::mutex> lock{mutex_};
    buffers_.push_back(std::make_unique<Buffer>());
    buffers_.back()->thread = threadNumber();
    buffers_.back()->spans.reserve(4096);
    tlsBuffer = buffers_.back().get();
    tlsBufferGeneration = generation_;
  }
  return *static_cast<Buffer*>(tlsBuffer);
}

void Tracer::record(const Span& span) {
  Buffer& buffer = localBuffer();
  buffer.spans.push_back(span);
  buffer.spans.back().thread = buffer.thread;
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock{mutex_};
  std::vector<Span> merged;
  for (const auto& buffer : buffers_) {
    merged.insert(merged.end(), buffer->spans.begin(), buffer->spans.end());
  }
  std::sort(merged.begin(), merged.end(), [](const Span& a, const Span& b) {
    return a.startNs != b.startNs ? a.startNs < b.startNs : a.id < b.id;
  });
  return merged;
}

void Tracer::writeJsonLines(const std::string& path) const {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) throw rtlock::support::Error{"cannot write trace file " + path};
  for (const Span& span : spans()) {
    rtlock::support::JsonValue line;
    line.set("name", span.name);
    line.set("start_ns", span.startNs);
    line.set("end_ns", span.endNs);
    line.set("id", span.id);
    line.set("parent", span.parent);
    line.set("op", span.op);
    line.set("thread", static_cast<std::uint64_t>(span.thread));
    line.set("error", span.error);
    out << line.dumpLine() << '\n';
  }
}

ScopedSpan::ScopedSpan(Tracer* tracer, const char* name, std::uint64_t op,
                       std::uint64_t parent) noexcept
    : tracer_(tracer) {
  if (tracer_ == nullptr) {
    span_.startNs = nowNs();
    return;
  }
  span_.name = name;
  span_.id = tracer_->newId();
  span_.parent = parent == kCurrentParent ? tlsCurrentSpan : parent;
  span_.op = op;
  savedCurrent_ = tlsCurrentSpan;
  tlsCurrentSpan = span_.id;
  span_.startNs = nowNs();
}

ScopedSpan::~ScopedSpan() { close(); }

std::int64_t ScopedSpan::elapsedNs() const noexcept {
  return (open_ ? nowNs() : span_.endNs) - span_.startNs;
}

void ScopedSpan::close() noexcept {
  if (!open_) return;
  open_ = false;
  span_.endNs = nowNs();
  if (tracer_ == nullptr) return;
  tlsCurrentSpan = savedCurrent_;
  try {
    tracer_->record(span_);
  } catch (...) {
    // Out of memory while tracing: the span is lost, the run goes on.
  }
}

std::map<std::string, LayerTime> layerTimes(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent != 0) children[spans[i].parent].push_back(i);
  }
  std::map<std::string, LayerTime> layers;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const Span& span : spans) {
    const std::int64_t duration = span.endNs - span.startNs;
    std::int64_t covered = 0;
    const auto found = children.find(span.id);
    if (found != children.end()) {
      intervals.clear();
      for (const std::size_t child : found->second) {
        const std::int64_t start = std::max(spans[child].startNs, span.startNs);
        const std::int64_t end = std::min(spans[child].endNs, span.endNs);
        if (end > start) intervals.emplace_back(start, end);
      }
      std::sort(intervals.begin(), intervals.end());
      std::int64_t runStart = 0;
      std::int64_t runEnd = 0;
      bool open = false;
      for (const auto& [start, end] : intervals) {
        if (open && start <= runEnd) {
          runEnd = std::max(runEnd, end);
          continue;
        }
        if (open) covered += runEnd - runStart;
        runStart = start;
        runEnd = end;
        open = true;
      }
      if (open) covered += runEnd - runStart;
    }
    LayerTime& layer = layers[span.name];
    layer.totalMs += static_cast<double>(duration) / 1e6;
    layer.selfMs += static_cast<double>(duration - covered) / 1e6;
    ++layer.calls;
    if (span.error) ++layer.errors;
  }
  return layers;
}

}  // namespace perfbench
