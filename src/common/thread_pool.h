// A small fixed-size thread pool with future-returning task submission:
// the worker substrate of the serving runtime (src/serve), one
// long-running task per shard worker. Kernels split their loops over
// common::FanOut (common/fan_out.h) instead.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <queue>
#include <stdexcept>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace orco::common {

class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means hardware_concurrency (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task and returns a future for its result. Exceptions thrown
  /// by the task are captured and rethrown from future::get(). Long-running
  /// tasks (e.g. serve-shard worker loops) occupy a worker until they
  /// return, so size the pool accordingly.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    {
      MutexLock lock(mu_);
      if (stop_) {
        throw std::runtime_error("ThreadPool::submit on a stopped pool");
      }
      tasks_.emplace([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mu_;
  std::queue<std::function<void()>> tasks_ ORCO_GUARDED_BY(mu_);
  std::condition_variable cv_;
  bool stop_ ORCO_GUARDED_BY(mu_) = false;
};

}  // namespace orco::common
