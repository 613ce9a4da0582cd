#include "core/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>

#include "util/contracts.h"
#include "util/error.h"

namespace v6mon::core {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) throw ConfigError("ThreadPool needs at least one thread");
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    util::LockGuard lock(mu_);
    if (stop_) return;  // idempotent; workers already joined or joining
    stop_ = true;
  }
  cv_task_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  // All workers have joined — the lock is uncontended; it still makes the
  // postcondition's read of active_ visibly well-ordered (and keeps the
  // thread-safety analysis honest).
  util::LockGuard lock(mu_);
  V6MON_ENSURE(active_ == 0, "workers exited while tasks were running");
}

void ThreadPool::submit(std::function<void()> task) {
  V6MON_ASSERT(task != nullptr, "ThreadPool::submit needs a callable task");
  {
    util::LockGuard lock(mu_);
    V6MON_REQUIRE(!stop_, "ThreadPool::submit after shutdown");
    if (stop_) throw Error("ThreadPool::submit after shutdown");
    queue_.push_back(std::move(task));
  }
  cv_task_.notify_one();
}

void ThreadPool::wait_idle() {
  util::UniqueLock lock(mu_);
  // Explicit predicate loop (not cv.wait(lock, pred)): the guarded reads
  // stay in this capability-holding scope where the analysis can see the
  // lock, instead of inside a lambda it analyzes without context.
  while (!(queue_.empty() && active_ == 0)) lock.wait(cv_idle_);
}

std::size_t resolve_threads(std::size_t threads) {
  if (threads != 0) return threads;
  return std::max(1u, std::thread::hardware_concurrency());
}

namespace {

/// The exception of the lowest index that threw, whatever order the
/// indices ran in.
class FirstError {
 public:
  void offer(std::size_t index, std::exception_ptr error) {
    if (index < index_) {
      index_ = index;
      error_ = std::move(error);
    }
  }
  /// Hand the exception over (null when no index threw).
  std::exception_ptr take() { return std::move(error_); }

 private:
  std::size_t index_ = SIZE_MAX;
  std::exception_ptr error_;
};

}  // namespace

void parallel_index(ThreadPool& pool, std::size_t n,
                    const std::function<void(std::size_t)>& fn) {
  V6MON_ASSERT(fn != nullptr, "parallel_index needs a callable body");
  if (n == 0) return;
  if (n == 1 || pool.thread_count() == 1) {
    // Degenerate shapes run inline: same fn(i) sequence, no queue hop —
    // and the threads=1 configuration stays a pure serial reference.
    FirstError first;
    for (std::size_t i = 0; i < n; ++i) {
      try {
        fn(i);
      } catch (...) {
        first.offer(i, std::current_exception());
      }
    }
    if (const std::exception_ptr error = first.take()) std::rethrow_exception(error);
    return;
  }

  // Completion is tracked per call (not via wait_idle) so overlapping
  // parallel_index calls on a shared pool return independently. The
  // counter is per *index*, not per helper: the caller below waits until
  // every claimed index has finished, so a helper that never leaves the
  // pool queue (all workers busy) cannot be waited on — it finds
  // `next >= n` whenever it eventually runs and exits without touching
  // `fn`. That is what makes nesting on a shared pool deadlock-free.
  struct Sync {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t total = 0;
    /// Owned copy: late helpers may outlive the caller's `fn` reference.
    std::function<void(std::size_t)> body;
    util::Mutex mu;
    std::condition_variable cv;
    bool complete V6MON_GUARDED_BY(mu) = false;
    FirstError first V6MON_GUARDED_BY(mu);
  };
  const auto sync = std::make_shared<Sync>();
  sync->total = n;
  sync->body = fn;
  const auto drain = [sync] {
    for (std::size_t i = sync->next.fetch_add(1, std::memory_order_relaxed);
         i < sync->total;
         i = sync->next.fetch_add(1, std::memory_order_relaxed)) {
      try {
        sync->body(i);
      } catch (...) {
        // Caught per index, so a throwing body never escapes a pool
        // worker and every claimed index still runs and counts as done.
        util::LockGuard lock(sync->mu);
        sync->first.offer(i, std::current_exception());
      }
      // acq_rel chain: the increment that reaches `total` has observed
      // every earlier increment, hence every earlier fn(i)'s effects —
      // the mutex below then publishes them to the waiting caller.
      if (sync->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          sync->total) {
        {
          util::LockGuard lock(sync->mu);
          sync->complete = true;
        }
        sync->cv.notify_all();
      }
    }
  };
  // The caller claims indices too, so at most thread_count - 1 helpers
  // can ever do useful work alongside it.
  const std::size_t helpers = std::min(pool.thread_count() - 1, n - 1);
  for (std::size_t w = 0; w < helpers; ++w) pool.submit(drain);
  drain();
  std::exception_ptr error;
  {
    util::UniqueLock lock(sync->mu);
    while (!sync->complete) lock.wait(sync->cv);
    // Take the exception out of `sync`: a late helper may drop the last
    // reference to `sync`, and the exception must be released on this
    // thread, which reads it, rather than by a helper's destructor.
    error = sync->first.take();
  }
  if (error) std::rethrow_exception(error);
}

void ThreadPool::worker_loop() {
  while (true) {
    std::function<void()> task;
    {
      util::UniqueLock lock(mu_);
      while (!(stop_ || !queue_.empty())) lock.wait(cv_task_);
      if (stop_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
      V6MON_ASSERT(active_ <= workers_.size(),
                   "more tasks in flight than worker threads");
    }
    task();
    {
      util::LockGuard lock(mu_);
      V6MON_ASSERT(active_ > 0, "active_ underflow");
      --active_;
      // Notify while holding the lock: a waiter between predicate check
      // and sleep cannot miss this wakeup, because we cannot reach here
      // before it blocks.
      if (queue_.empty() && active_ == 0) cv_idle_.notify_all();
    }
  }
}

}  // namespace v6mon::core
