#include "util/thread_pool.hpp"

#include <utility>

namespace syseco {

ThreadPool::ThreadPool(std::size_t threads) {
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  if (workers_.empty()) {  // inline mode: no workers at all
    packaged();
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push_back(std::move(packaged));
  }
  wake_.notify_one();
  return future;
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      // Drains the queue before honoring stop: pending tasks still run.
      wake_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop_front();
    }
    task();  // exceptions land in the task's future
  }
}

}  // namespace syseco
