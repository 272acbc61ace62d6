// Fixture: a work queue locked with the std types. Each of the five marked
// lines must produce one lock-type finding.
#include <condition_variable>
#include <deque>
#include <mutex>

namespace fixture {

struct Queue {
  std::mutex mutex;              // 1
  std::condition_variable ready;  // 2
  std::deque<int> items;
};

void push(Queue& q, int item) {
  {
    std::lock_guard<std::mutex> guard(q.mutex);  // 3
    q.items.push_back(item);
  }
  q.ready.notify_one();
}

int pop(Queue& q) {
  std::unique_lock<std::mutex> lock(q.mutex);  // 4
  q.ready.wait(lock, [&q] { return !q.items.empty(); });
  const int item = q.items.front();
  q.items.pop_front();
  return item;
}

// A second lock taken with std::scoped_lock.  // 5

}  // namespace fixture
