// ThreadPool::drain() contract: completes queued work without accepting
// new submissions, is idempotent, and is a safe no-op after shutdown().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "runtime/thread_pool.hpp"

namespace {

using safe::runtime::ThreadPool;

TEST(ThreadPoolDrain, CompletesQueuedWorkThenRefusesNew) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([&done] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      done.fetch_add(1);
    });
  }
  pool.drain();
  EXPECT_EQ(done.load(), 64);
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPoolDrain, DoubleDrainIsANoOp) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&done] { done.fetch_add(1); });
  }
  pool.drain();
  pool.drain();  // must not hang or throw
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadPoolDrain, DrainAfterShutdownIsANoOp) {
  ThreadPool pool(2);
  pool.submit([] {});
  pool.shutdown();
  pool.drain();  // workers already joined; must return immediately
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPoolDrain, WorkersStayAliveForShutdown) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  pool.submit([&done] { done.fetch_add(1); });
  pool.drain();
  EXPECT_EQ(done.load(), 1);
  // Errors stashed before the drain stay retrievable.
  pool.shutdown();
  EXPECT_EQ(pool.size(), 2u);
}

TEST(ThreadPoolDrain, UnblocksAWaitingSubmitter) {
  // A submitter blocked on full queues must wake and throw once drain
  // begins, instead of deadlocking against workers that will never free
  // enough space for it.
  ThreadPool pool(1, /*queue_capacity=*/1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  pool.submit([&started, &release] {
    started.store(true);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  // Only fill the queue once the worker is pinned inside the first task;
  // otherwise that task may still be queued and the fill races with it.
  while (!started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pool.submit([] {});  // one busy worker, capacity 1: the queue is now full
  std::atomic<bool> threw{false};
  std::thread submitter([&pool, &threw] {
    try {
      pool.submit([] {});
    } catch (const std::runtime_error&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  std::thread drainer([&pool] { pool.drain(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  release.store(true);
  drainer.join();
  submitter.join();
  EXPECT_TRUE(threw.load());
}

}  // namespace
