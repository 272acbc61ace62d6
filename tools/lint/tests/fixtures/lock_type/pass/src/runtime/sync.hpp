// Fixture: the wrapper itself may name the std types it wraps.
#pragma once

#include <condition_variable>
#include <mutex>

namespace fixture::runtime {

class Mutex {
 public:
  void lock() { mu_.lock(); }
  void unlock() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

class CondVar {
 private:
  std::condition_variable cv_;
};

}  // namespace fixture::runtime
