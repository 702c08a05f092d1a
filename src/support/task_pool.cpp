#include "support/task_pool.hpp"

#include "support/diagnostics.hpp"

namespace rtlock::support {

int resolveThreadCount(int requested) noexcept {
  if (requested >= 1) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : static_cast<int>(hardware);
}

int threadsForTasks(int requested, std::size_t tasks) noexcept {
  const int resolved = resolveThreadCount(requested);
  if (tasks == 0) return 1;
  return tasks < static_cast<std::size_t>(resolved) ? static_cast<int>(tasks) : resolved;
}

TaskPool::TaskPool(int threads, std::size_t queueCapacity)
    : threadCount_(resolveThreadCount(threads)), queueCapacity_(queueCapacity) {
  // One thread means "the calling thread": submit() runs tasks inline, so
  // the serial reference path involves no worker, no queue hand-off, and no
  // scheduling at all.
  if (threadCount_ > 1) {
    workers_.reserve(static_cast<std::size_t>(threadCount_));
    for (int i = 0; i < threadCount_; ++i) {
      workers_.emplace_back([this] { workerLoop(); });
    }
  }
}

TaskPool::~TaskPool() {
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    stopping_ = true;
  }
  workAvailable_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

std::size_t TaskPool::submit(std::function<void()> task) {
  RTLOCK_REQUIRE(task != nullptr, "TaskPool::submit requires a callable task");
  if (workers_.empty()) {
    // Serial reference path: run inline, capture failures for wait() so the
    // error contract matches the threaded pool exactly.
    const std::size_t index = nextIndex_++;
    runTask(index, task);
    return index;
  }
  std::size_t index = 0;
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    index = nextIndex_++;
    queue_.emplace_back(index, std::move(task));
    ++inFlight_;
  }
  workAvailable_.notify_one();
  return index;
}

bool TaskPool::trySubmit(std::function<void()> task) {
  RTLOCK_REQUIRE(task != nullptr, "TaskPool::trySubmit requires a callable task");
  if (workers_.empty()) {
    // Inline path: nothing ever queues, so capacity cannot be exceeded.
    submit(std::move(task));
    return true;
  }
  {
    const std::lock_guard<std::mutex> lock{mutex_};
    if (queueCapacity_ != 0 && queue_.size() >= queueCapacity_) return false;
    queue_.emplace_back(nextIndex_++, std::move(task));
    ++inFlight_;
  }
  workAvailable_.notify_one();
  return true;
}

void TaskPool::wait() {
  // The earliest failure by *submission* index wins, like a serial loop
  // that stops at its first throw.  errors_ holds failures only (not a slot
  // per submission), so the scan is over actual failures.
  const auto firstError = [this]() {
    std::exception_ptr first;
    std::size_t firstIndex = 0;
    for (const auto& [index, error] : errors_) {
      if (!first || index < firstIndex) {
        first = error;
        firstIndex = index;
      }
    }
    return first;
  };
  std::exception_ptr first;
  if (workers_.empty()) {
    first = firstError();
    errors_.clear();
    nextIndex_ = 0;
  } else {
    std::unique_lock<std::mutex> lock{mutex_};
    batchDone_.wait(lock, [this] { return inFlight_ == 0; });
    first = firstError();
    errors_.clear();
    nextIndex_ = 0;
  }
  if (first) std::rethrow_exception(first);
}

void TaskPool::workerLoop() {
  for (;;) {
    std::pair<std::size_t, std::function<void()>> job;
    {
      std::unique_lock<std::mutex> lock{mutex_};
      workAvailable_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    runTask(job.first, job.second);
    {
      const std::lock_guard<std::mutex> lock{mutex_};
      --inFlight_;
      if (inFlight_ == 0) batchDone_.notify_all();
    }
  }
}

void TaskPool::runTask(std::size_t index, const std::function<void()>& task) noexcept {
  try {
    task();
  } catch (...) {
    if (workers_.empty()) {
      errors_.emplace_back(index, std::current_exception());
    } else {
      const std::lock_guard<std::mutex> lock{mutex_};
      errors_.emplace_back(index, std::current_exception());
    }
  }
}

}  // namespace rtlock::support
