// Work-stealing thread pool for embarrassingly parallel campaign trials.
//
// Each worker owns a bounded deque: it pushes and pops its own back (LIFO,
// cache-friendly) and steals from the front of a peer's deque when its own
// runs dry (FIFO, oldest-first — the steal order that keeps a straggler's
// queue short). Submission round-robins across queues and applies
// backpressure by blocking once every queue is at capacity, so a producer
// can stream millions of tasks without unbounded memory growth.
//
// Scheduling order is deliberately unspecified; deterministic consumers
// (the campaign engine) must key results by task identity, never by
// completion order.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/sync.hpp"

namespace safe::runtime {

class ThreadPool {
 public:
  static constexpr std::size_t kDefaultQueueCapacity = 256;

  /// Spawns `num_threads` workers (minimum 1), each with a deque bounded at
  /// `queue_capacity` tasks.
  explicit ThreadPool(std::size_t num_threads,
                      std::size_t queue_capacity = kDefaultQueueCapacity);

  /// Drains queued tasks and joins (equivalent to shutdown()).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues `task`; blocks while every worker queue is full. Throws
  /// std::runtime_error after shutdown().
  void submit(std::function<void()> task);

  /// Blocks until every submitted task has finished, then rethrows the
  /// first exception that escaped a task (if any).
  void wait_idle();

  /// Stops accepting new submissions, then blocks until every already
  /// submitted task has finished. Workers stay alive (shutdown() still joins
  /// them later). Unlike wait_idle() it never throws — exceptions stashed by
  /// tasks stay retrievable via wait_idle() afterwards. Idempotent: a second
  /// drain(), or a drain() after shutdown(), is a safe no-op. submit()
  /// after drain() throws std::runtime_error. This is the
  /// graceful-shutdown hook the streaming server uses: finish in-flight
  /// session work, refuse new work, then shutdown().
  void drain();

  /// Completes all queued tasks, then joins the workers. Idempotent; unlike
  /// wait_idle() it never throws (safe from the destructor). Exceptions
  /// stashed by tasks stay retrievable via wait_idle() before shutdown.
  void shutdown();

 private:
  struct WorkerQueue {
    Mutex mutex;
    std::deque<std::function<void()>> tasks SAFE_GUARDED_BY(mutex);
  };

  void worker_loop(std::size_t index);
  bool pop_or_steal(std::size_t index, std::function<void()>& task);
  bool push_to_some_queue(std::function<void()>& task);
  bool submit_once(std::function<void()>& task);

#ifdef SAFE_SENSING_TS_NEGATIVE_TEST
  // Hooks for tests/compile_fail/ts_*.cpp only: the test TU defines these
  // out of class, touching guarded fields with and without the guarding
  // mutex, to prove a GUARDED_BY violation in ThreadPool code is a build
  // break under -Werror=thread-safety. Never declared in normal builds.
  std::size_t ts_probe_queue_depth_unlocked();
  std::size_t ts_probe_queue_depth_locked();
#endif

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::size_t capacity_;

  std::atomic<bool> stop_{false};
  std::atomic<bool> draining_{false};  ///< Submissions refused; workers live.
  std::atomic<std::size_t> queued_{0};     ///< Tasks sitting in deques.
  std::atomic<std::size_t> in_flight_{0};  ///< Queued plus running.
  std::atomic<std::size_t> next_queue_{0};

  /// Serializes sleep/wake transitions only; the fields the predicates read
  /// are atomics, so nothing is GUARDED_BY this mutex. Lock-then-notify on
  /// it pairs with the predicate re-check inside every wait.
  Mutex wake_mutex_;
  CondVar worker_cv_;  ///< Work available (or stopping).
  CondVar idle_cv_;    ///< Queue space freed / pool idle.

  Mutex error_mutex_;
  std::exception_ptr first_error_ SAFE_GUARDED_BY(error_mutex_);
};

}  // namespace safe::runtime
