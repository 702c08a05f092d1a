// Deterministic fixed-size worker pool for the experiment engine.
//
// The evaluation grids (Sec. 5) are embarrassingly parallel: every
// (benchmark, algorithm) cell and every figure scenario is an independent
// task once it owns its own RNG substream and module clone.  Cells are the
// only level that fans out — a cell's locked samples run serially inside
// it — so no task ever opens a pool of its own.  TaskPool shards such
// batches across a fixed set of workers while keeping the *observable*
// behaviour identical to a serial loop:
//
//  * results are collected in submission order, regardless of the order in
//    which workers finish (map() fills a result slot per index);
//  * exceptions thrown by tasks are captured and rethrown from wait() — the
//    first failure in submission order wins, exactly like a serial loop that
//    stops at the first throw;
//  * with threads == 1 no worker thread exists at all: submit() runs the
//    task inline on the calling thread, so the single-threaded pool *is* the
//    serial reference path, not a simulation of it.
//
// Determinism contract: the pool never provides randomness and never
// reorders observable results.  Tasks must not share mutable state; each
// task derives everything it needs from its submission index (see
// Rng::substream for the seeding convention).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace rtlock::support {

/// Effective worker count: `requested` >= 1 is taken as-is; 0 or negative
/// (the "pick for me" default) resolves to the hardware concurrency, with a
/// floor of 1 when the runtime reports nothing.
[[nodiscard]] int resolveThreadCount(int requested) noexcept;

/// Worker count for a batch of `tasks`: resolveThreadCount(requested) capped
/// to the batch size, so small grids don't spawn workers that never run a
/// task.  A zero-task batch still gets the one (inline) thread.
[[nodiscard]] int threadsForTasks(int requested, std::size_t tasks) noexcept;

class TaskPool {
 public:
  /// Creates the pool.  `threads` follows resolveThreadCount; a pool of one
  /// thread spawns no workers and runs every task inline in submit().
  /// `queueCapacity` bounds trySubmit() (0 = unbounded): it is the
  /// backpressure limit for open-ended producers like `rtlock serve`, and
  /// deliberately does NOT apply to submit()/map(), whose batch producers
  /// rely on unconditional enqueueing.
  explicit TaskPool(int threads = 0, std::size_t queueCapacity = 0);

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// Drains outstanding tasks, then joins the workers.  Pending exceptions
  /// that were never collected through wait() are dropped.
  ~TaskPool();

  [[nodiscard]] int threadCount() const noexcept { return threadCount_; }

  /// Enqueues one task and returns its submission index within the current
  /// batch.  Tasks may run in any order and on any worker.
  std::size_t submit(std::function<void()> task);

  /// Bounded-queue submit: enqueues like submit() unless the pool was built
  /// with a queueCapacity and that many tasks are already *queued* (running
  /// tasks don't count), in which case it returns false without touching any
  /// batch bookkeeping — the caller sheds load (HTTP 429) instead of
  /// buffering unboundedly.  On the serial (inline) path the queue never
  /// holds tasks, so trySubmit always accepts.
  [[nodiscard]] bool trySubmit(std::function<void()> task);

  [[nodiscard]] std::size_t queueCapacity() const noexcept { return queueCapacity_; }

  /// Blocks until every task submitted since the last wait() has finished,
  /// then rethrows the earliest failure by *submission* order (if any) and
  /// resets the batch so the pool can be reused.
  void wait();

  /// Deterministic fan-out: runs `fn(index)` for every index in [0, count)
  /// and returns the results in index order regardless of completion order.
  /// The result type must be default-constructible and movable.  Rethrows
  /// the first failing task's exception (by index) after the batch drains.
  template <typename Fn>
  auto map(std::size_t count, Fn&& fn) {
    using Result = std::decay_t<std::invoke_result_t<Fn&, std::size_t>>;
    // std::vector<bool> packs bits: concurrent writes to distinct indices
    // would race on shared bytes.  Return int/char instead.
    static_assert(!std::is_same_v<Result, bool>,
                  "TaskPool::map cannot return bool (vector<bool> bit-packing races)");
    std::vector<Result> results(count);
    try {
      for (std::size_t index = 0; index < count; ++index) {
        submit([&results, &fn, index] { results[index] = fn(index); });
      }
    } catch (...) {
      // submit() itself failed (e.g. bad_alloc): already-queued tasks still
      // reference `results`/`fn`, so drain them before unwinding.  The
      // submit failure outranks any task exception.
      try {
        wait();
      } catch (...) {  // NOLINT(bugprone-empty-catch)
      }
      throw;
    }
    wait();
    return results;
  }

 private:
  void workerLoop();
  void runTask(std::size_t index, const std::function<void()>& task) noexcept;

  int threadCount_ = 1;
  std::size_t queueCapacity_ = 0;  // trySubmit() bound; 0 = unbounded
  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable workAvailable_;
  std::condition_variable batchDone_;
  std::deque<std::pair<std::size_t, std::function<void()>>> queue_;
  // Failures only, unordered: a long-running pool that never fails (the
  // serve worker pool) must not grow a slot per submission between wait()s.
  std::vector<std::pair<std::size_t, std::exception_ptr>> errors_;
  std::size_t nextIndex_ = 0;  // submissions in the current batch
  std::size_t inFlight_ = 0;   // queued + running tasks
  bool stopping_ = false;
};

}  // namespace rtlock::support
