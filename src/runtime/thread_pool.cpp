#include "runtime/thread_pool.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "telemetry/telemetry.hpp"

namespace safe::runtime {

namespace {

// Pool observability (DESIGN.md §11). Task and steal tallies, queue-depth
// high-water, and idle time are all scheduling-dependent except the total
// task count, which is a pure function of the submitted workload.
const telemetry::MetricId& pool_tasks_metric() {
  static const telemetry::MetricId id =
      telemetry::counter("pool.tasks", telemetry::Stability::kDeterministic);
  return id;
}

const telemetry::MetricId& pool_steals_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "pool.steals", telemetry::Stability::kSchedulingDependent);
  return id;
}

const telemetry::MetricId& pool_idle_ns_metric() {
  static const telemetry::MetricId id = telemetry::counter(
      "pool.idle_ns", telemetry::Stability::kSchedulingDependent);
  return id;
}

const telemetry::MetricId& pool_queue_depth_metric() {
  static const telemetry::MetricId id =
      telemetry::gauge_max("pool.queue_depth_max");
  return id;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t num_threads, std::size_t queue_capacity)
    : capacity_(queue_capacity == 0 ? 1 : queue_capacity) {
  const std::size_t n = num_threads == 0 ? 1 : num_threads;
  queues_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  try {
    shutdown();
  } catch (...) {
    // A destructor must not throw; std::thread::join can only fail here on
    // states (deadlock-with-self, invalid id) that indicate a caller bug.
  }
}

bool ThreadPool::push_to_some_queue(std::function<void()>& task) {
  // Round-robin over the queues starting at a rotating offset; first queue
  // with room wins. A full sweep with no room means global backpressure.
  const std::size_t n = queues_.size();
  const std::size_t start =
      next_queue_.fetch_add(1, std::memory_order_relaxed) % n;
  for (std::size_t k = 0; k < n; ++k) {
    WorkerQueue& q = *queues_[(start + k) % n];
    MutexLock guard(q.mutex);
    if (q.tasks.size() >= capacity_) continue;
    q.tasks.push_back(std::move(task));
    telemetry::gauge_update_max(pool_queue_depth_metric(),
                                static_cast<double>(q.tasks.size()));
    return true;
  }
  return false;
}

bool ThreadPool::submit_once(std::function<void()>& task) {
  if (stop_.load(std::memory_order_acquire)) {
    throw std::runtime_error("ThreadPool: submit after shutdown");
  }
  if (draining_.load(std::memory_order_acquire)) {
    throw std::runtime_error("ThreadPool: submit after drain");
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  if (!push_to_some_queue(task)) {  // only moves from `task` on success
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    return false;
  }
  queued_.fetch_add(1, std::memory_order_release);
  {
    // Lock-then-notify pairs with the predicate re-check inside wait();
    // without it a worker could check the predicate, see no work, and sleep
    // through this notification.
    MutexLock guard(wake_mutex_);
  }
  worker_cv_.notify_one();
  return true;
}

void ThreadPool::submit(std::function<void()> task) {
  while (!submit_once(task)) {
    MutexLock lock(wake_mutex_);
    idle_cv_.wait(wake_mutex_, [this] {
      return stop_.load(std::memory_order_acquire) ||
             draining_.load(std::memory_order_acquire) ||
             queued_.load(std::memory_order_acquire) <
                 capacity_ * queues_.size();
    });
  }
}

bool ThreadPool::pop_or_steal(std::size_t index, std::function<void()>& task) {
  const std::size_t n = queues_.size();
  {
    WorkerQueue& own = *queues_[index];
    MutexLock guard(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());
      own.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_release);
      return true;
    }
  }
  for (std::size_t k = 1; k < n; ++k) {
    WorkerQueue& victim = *queues_[(index + k) % n];
    MutexLock guard(victim.mutex);
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.front());
      victim.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_release);
      telemetry::add(pool_steals_metric());
      return true;
    }
  }
  return false;
}

void ThreadPool::worker_loop(std::size_t index) {
  telemetry::set_thread_name("pool-worker-" + std::to_string(index));
  std::function<void()> task;
  while (true) {
    if (pop_or_steal(index, task)) {
      {
        MutexLock guard(wake_mutex_);
      }
      idle_cv_.notify_all();  // queue space freed: unblock submitters
      try {
        telemetry::add(pool_tasks_metric());
        task();
      } catch (...) {
        MutexLock guard(error_mutex_);
        if (!first_error_) first_error_ = std::current_exception();
      }
      task = nullptr;
      if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        MutexLock guard(wake_mutex_);
        idle_cv_.notify_all();
      }
      continue;
    }
    // Time spent parked with an empty queue. The clock is only read when
    // metrics are on, so a disabled build never pays for it.
    const bool account_idle = telemetry::metrics_enabled();
    const std::uint64_t idle_start = account_idle ? telemetry::now_ns() : 0;
    {
      MutexLock lock(wake_mutex_);
      worker_cv_.wait(wake_mutex_, [this] {
        return stop_.load(std::memory_order_acquire) ||
               queued_.load(std::memory_order_acquire) > 0;
      });
    }
    if (account_idle) {
      telemetry::add(pool_idle_ns_metric(),
                     telemetry::now_ns() - idle_start);
    }
    if (stop_.load(std::memory_order_acquire) &&
        queued_.load(std::memory_order_acquire) == 0) {
      return;
    }
  }
}

void ThreadPool::wait_idle() {
  {
    MutexLock lock(wake_mutex_);
    idle_cv_.wait(wake_mutex_, [this] {
      return in_flight_.load(std::memory_order_acquire) == 0;
    });
  }
  MutexLock guard(error_mutex_);
  if (first_error_) {
    std::exception_ptr error = std::exchange(first_error_, nullptr);
    std::rethrow_exception(error);
  }
}

void ThreadPool::drain() {
  {
    // Lock-then-store pairs with the predicate re-check inside blocked
    // submit() waits, exactly like shutdown()'s stop flag.
    MutexLock guard(wake_mutex_);
    draining_.store(true, std::memory_order_release);
  }
  idle_cv_.notify_all();  // blocked submitters re-check and throw
  MutexLock lock(wake_mutex_);
  idle_cv_.wait(wake_mutex_, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

void ThreadPool::shutdown() {
  {
    MutexLock guard(wake_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  worker_cv_.notify_all();
  idle_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
}

}  // namespace safe::runtime
