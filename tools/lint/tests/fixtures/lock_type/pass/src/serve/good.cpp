// Fixture: a queue locked with the annotated types, plus one suppressed
// occurrence. None may produce findings.
#include <deque>

#include "runtime/sync.hpp"

namespace fixture {

struct Queue {
  runtime::Mutex mutex;
  runtime::CondVar ready;
  std::deque<int> items SAFE_GUARDED_BY(mutex);
};

void push(Queue& q, int item) {
  {
    runtime::MutexLock guard(q.mutex);
    q.items.push_back(item);
  }
  q.ready.notify_one();
}

// A deliberate, commented exception: std::mutex  lint: allow(lock-type)

}  // namespace fixture
