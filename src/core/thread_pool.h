#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace v6mon::core {

/// Fixed-size worker pool. The paper's monitor is "multi-threaded so that
/// multiple sites (no more than 25...) can be monitored in parallel" —
/// this is that pool. Tasks must not throw (they are measurement closures
/// that record their own failures). Tasks dispatch in submission order
/// (a FIFO); which *worker* runs a task is up to the OS.
class ThreadPool {
 public:
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Precondition (V6MON_REQUIRE, throws v6mon::Error in
  /// checked builds): the pool has not been shut down — submitting after
  /// `shutdown()` / during destruction is a programmer error, and
  /// silently dropping or running such a task would race the joining
  /// workers.
  void submit(std::function<void()> task) V6MON_EXCLUDES(mu_);

  /// Block until the queue is drained and all workers are idle. Safe to
  /// call from several threads; returns when the pool is *momentarily*
  /// idle (concurrent producers can enqueue more work afterwards).
  void wait_idle() V6MON_EXCLUDES(mu_);

  /// Drain remaining tasks and join all workers. Idempotent; called by the
  /// destructor. After shutdown, `submit` rejects new work.
  void shutdown() V6MON_EXCLUDES(mu_);

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

 private:
  void worker_loop() V6MON_EXCLUDES(mu_);

  util::Mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  std::deque<std::function<void()>> queue_ V6MON_GUARDED_BY(mu_);
  std::size_t active_ V6MON_GUARDED_BY(mu_) = 0;
  bool stop_ V6MON_GUARDED_BY(mu_) = false;
  /// Written once by the constructor before any worker runs, then only
  /// joined; safe to read unlocked (thread_count, shutdown's join loop).
  std::vector<std::thread> workers_;
};

/// The worker count a `threads` knob asks for: 0 means one per hardware
/// thread (at least one); anything else is taken as given. The only
/// reader of std::thread::hardware_concurrency in the tree (v6mon-lint
/// D008), so every "0 = hardware" knob resolves the same way.
[[nodiscard]] std::size_t resolve_threads(std::size_t threads);

/// Run `fn(i)` for every i in [0, n) on the pool, handing indices out
/// through a shared atomic counter (work stealing): a worker that finishes
/// index i immediately claims the next unclaimed index, so one slow item
/// (a dual-stack site with a long CI loop, a big RIB destination) never
/// serializes a whole fixed-size chunk behind it.
///
/// Blocks until all n calls have completed — only *this* call's work, so
/// concurrent parallel_index calls on one pool don't wait for each other.
/// `fn` must be safe to invoke concurrently from pool workers. Iteration
/// order across workers is unspecified; callers needing deterministic
/// output must make fn(i) independent of scheduling (per-index RNG
/// streams, indexed result slots).
///
/// `fn` may throw. Each index's exception is caught where it ran, every
/// index still runs exactly once, and once all have finished the caller
/// gets the exception of the lowest index that threw — the same one at
/// any thread count and under any schedule.
///
/// Deadlock-free under nesting: the caller participates in the index
/// loop itself and then waits only for indices some thread has already
/// *claimed* — never for a queued helper that has not started. So a
/// body running *on* a pool worker (a campaign's per-VP chain) may call
/// parallel_index on the same pool even when every other worker is busy:
/// the caller simply drains all n indices inline and the late helpers
/// no-op. (Waiting for a fixed set of submitted helpers instead would
/// deadlock the moment all workers are occupied by tasks that are
/// themselves waiting.)
void parallel_index(ThreadPool& pool, std::size_t n,
                    const std::function<void(std::size_t)>& fn);

}  // namespace v6mon::core
