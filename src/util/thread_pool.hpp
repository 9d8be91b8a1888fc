#pragma once

/// \file thread_pool.hpp
/// Fixed-size worker pool with two kinds of user. Sweep runners hand it
/// whole self-contained trials — own engine, own RNG stream, own
/// tracer/metrics. Inside one simulation, the flow engine's tick phases
/// (flow::FlowNetwork) and DD-POLICE's flag scan hand it contiguous peer
/// spans: each task writes only its own span's state and its own
/// contribution log, and the coordinating thread folds the logs in span
/// order after wait_idle(), so output never depends on scheduling. The
/// packet engine stays strictly single-writer (see sim/engine.hpp).
///
/// Semantics: submit() enqueues a task; wait_idle() blocks the caller
/// until every submitted task has finished. Tasks must not submit further
/// tasks (the sweep fan-out is flat), and exceptions must be caught and
/// stored by the task itself — a task that throws terminates the process.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ddp::util {

class ThreadPool {
 public:
  /// Spin up `workers` threads (clamped to at least 1).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

  /// Enqueue a task. Thread-safe, but the intended pattern is a single
  /// coordinating thread submitting a batch and then calling wait_idle().
  void submit(std::function<void()> task);

  /// Block until the queue is empty and no worker is running a task.
  void wait_idle();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  ///< queued + currently executing
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

/// Resolve a jobs request: 0 means "one per hardware thread", anything
/// else is used as given (clamped to at least 1).
unsigned resolve_jobs(unsigned requested) noexcept;

}  // namespace ddp::util
