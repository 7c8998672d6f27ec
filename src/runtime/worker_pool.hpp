#pragma once
/// \file worker_pool.hpp
/// \brief Fixed pool of worker threads driven in barrier-synchronized
///        batches.
///
/// The pool executes *batches*: run_tasks(N, body) releases every worker
/// through a start barrier, runs task ids 0..N-1 across them, and returns
/// only after every worker reached the end barrier — a full barrier on
/// both sides, so the caller may mutate shared state between batches
/// without fences of its own.
///
/// Within a batch, task t's home is worker t % threads.  A worker runs its
/// home tasks first, then any task nobody has claimed yet, so a slow task
/// (a hot segment) never holds back the rest of the batch.  One atomic
/// flag per task makes every claim exactly-once; a worker that runs out of
/// tasks yields until the whole batch is done instead of falling asleep in
/// the end barrier.
///
/// The calling thread participates as worker 0; a pool built with
/// `threads == 1` spawns nothing and runs every task inline in ascending
/// order — the degenerate case is the deterministic sequential schedule
/// the oracle mode relies on.
///
/// Tasks must be independent: the pool guarantees nothing about cross-task
/// ordering within a batch beyond "all complete before run_tasks returns".

#include <atomic>
#include <barrier>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

namespace idea::runtime {

struct WorkerPoolStats {
  std::uint64_t batches = 0;    ///< run_tasks calls.
  std::uint64_t tasks_run = 0;  ///< Tasks executed across all batches.
  std::uint64_t steals = 0;     ///< Tasks run away from their home worker.
};

class WorkerPool {
 public:
  /// Task body: (task id, executing worker id).
  using TaskBody = std::function<void(std::uint32_t, std::uint32_t)>;

  explicit WorkerPool(std::uint32_t threads);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Execute tasks 0..task_count-1, blocking until all completed and all
  /// workers reached the end barrier.  `body` may be invoked concurrently
  /// from different threads for different tasks.
  void run_tasks(std::uint32_t task_count, const TaskBody& body);

  [[nodiscard]] const WorkerPoolStats& stats() const { return stats_; }

 private:
  void worker_loop(std::uint32_t worker);
  /// Run home tasks, then unclaimed ones, then wait for the batch to end.
  void work(std::uint32_t worker);

  const std::uint32_t threads_;
  std::barrier<> start_;
  std::barrier<> end_;

  // Batch state, written by the caller before the start barrier and only
  // read by workers until the end barrier.
  const TaskBody* body_ = nullptr;
  std::uint32_t task_count_ = 0;
  bool shutdown_ = false;

  /// claimed_[t] flips once per batch, by whichever worker runs task t.
  std::vector<std::atomic<bool>> claimed_;
  std::atomic<std::uint32_t> done_{0};  ///< Tasks of this batch finished.
  /// Per-worker steal counts (slot w written only by worker w; summed by
  /// the caller after the end barrier).
  std::vector<std::uint64_t> steals_;

  WorkerPoolStats stats_;
  std::vector<std::thread> spawned_;  ///< Workers 1..threads_-1.
};

}  // namespace idea::runtime
