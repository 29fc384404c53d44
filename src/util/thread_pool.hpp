// Fixed-size worker pool with per-worker deques and work stealing.
//
// The verifier side of the protocol is the cheap side of the paper's
// asymmetry — it must answer many authentication requests per second, each
// a handful of independent residual-graph checks or max-flow solves.  That
// workload is embarrassingly parallel *across* items, so the batch front
// ends (SimulationModel::predict_batch, protocol::Verifier::verify_batch)
// both funnel into this one pool instead of each spawning ad-hoc
// std::threads per call.
//
// Design:
//   - `thread_count` workers are spawned once and live for the pool's
//     lifetime; parallel_for() distributes indices round-robin across the
//     per-worker deques, each worker drains its own deque front-first and
//     steals from the *back* of a victim's deque when empty (classic
//     work-stealing shape: owner and thief touch opposite ends).
//   - Cancellation/deadline integration: the control-aware parallel_for
//     keeps dispatching every index, but once the SolveControl fires the
//     task body receives the sticky non-ok Status so it can mark its item
//     ("cancelled before start") instead of attempting it.  That matches
//     the batch contract — every item ends with a typed status, none are
//     silently dropped.
//   - parallel_for calls carry their own completion state, so independent
//     callers may share one pool concurrently; tasks must not themselves
//     call parallel_for on the same pool (no nested dispatch).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/status.hpp"

namespace ppuf::util {

class ThreadPool {
 public:
  /// Spawns `thread_count` workers (at least one).
  explicit ThreadPool(unsigned thread_count);

  /// Drains queued work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Default worker count for "use the machine": hardware concurrency,
  /// clamped to at least 1 (hardware_concurrency() may return 0).
  static unsigned default_thread_count();

  /// Fire-and-forget: enqueue one task (round-robin across the worker
  /// deques) and return immediately.  This is the service entry point —
  /// the AuthServer event loop hands each decoded request to the pool and
  /// goes back to its sockets.  The task must not throw (there is no job
  /// to collect the exception; an escaping one terminates the process) and
  /// must not itself call submit()/parallel_for() on the same pool.
  void submit(std::function<void()> task);

  /// Runs fn(i) for every i in [0, count); blocks until all have run.
  /// Exceptions thrown by fn are a bug in the caller (batch fronts catch
  /// per-item failures themselves); the first one is rethrown after the
  /// remaining tasks finish.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& fn);

  /// Control-aware variant.  Every index is still dispatched, but once
  /// `control` fires fn is handed the sticky non-ok Status (kCancelled or
  /// kDeadlineExceeded) so it can mark its item without attempting it.
  /// Returns Ok when every item was handed an ok status (even if the
  /// deadline expired while the last item was running or after it
  /// finished — a completed batch is a completed batch); returns the
  /// sticky status once any item observed the stop.
  Status parallel_for(
      std::size_t count,
      const std::function<void(std::size_t, const Status&)>& fn,
      const SolveControl& control);

 private:
  struct WorkerQueue;
  struct Job;

  void worker_loop(unsigned worker_index);
  /// Pop from own deque front, else steal from the back of another
  /// worker's deque.  Returns false when no task was found anywhere.
  bool try_take_task(unsigned worker_index, std::function<void()>* task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> next_queue_{0};  ///< submit() round-robin cursor

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  bool stopping_ = false;
  std::size_t pending_ = 0;  ///< tasks enqueued but not yet taken by a worker
};

}  // namespace ppuf::util
