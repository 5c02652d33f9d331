#pragma once
// Thread pool for the per-output rectification cascade and the oracle
// fan-out.
//
// N worker threads share one FIFO queue: tasks *start* in submission
// order. The plan-order supervisor relies on that - it submits its commit
// window in plan order, so the output due next for commit is always the
// first to get a thread instead of waiting behind later speculation. The
// tasks are coarse (a whole per-output search or certification), so one
// mutex-guarded queue costs nothing measurable. submit() returns a
// std::future<void> the caller can block on; task exceptions propagate
// through the future. The pool is deliberately value-free: tasks produce
// their results through captured state, and *ordering* of result
// consumption is the caller's job (the syseco engine commits per-output
// results strictly in plan order, which is what keeps `--jobs N`
// bit-identical to `--jobs 1`).
//
// A ThreadPool with zero threads degenerates to inline execution inside
// submit() - callers can treat `jobs == 1` and `jobs == N` uniformly.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace syseco {

class ThreadPool {
 public:
  /// Spawns `threads` workers. 0 means no workers: submit() runs the task
  /// inline before returning (the returned future is already ready).
  explicit ThreadPool(std::size_t threads);

  /// Joins all workers. Pending tasks are still executed; destruction
  /// waits for the queue to drain.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `task` behind every task submitted before it and returns a
  /// future that becomes ready when it has run. Exceptions thrown by the
  /// task are captured into the future.
  std::future<void> submit(std::function<void()> task);

  std::size_t threadCount() const { return workers_.size(); }

 private:
  void workerLoop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::packaged_task<void()>> tasks_;  // under mutex_
  bool stopping_ = false;                         // under mutex_
  std::vector<std::thread> workers_;
};

}  // namespace syseco
