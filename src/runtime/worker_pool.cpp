#include "runtime/worker_pool.hpp"

namespace idea::runtime {

WorkerPool::WorkerPool(std::uint32_t threads)
    : threads_(threads == 0 ? 1 : threads),
      start_(threads_),
      end_(threads_),
      steals_(threads_, 0) {
  spawned_.reserve(threads_ - 1);
  for (std::uint32_t w = 1; w < threads_; ++w) {
    spawned_.emplace_back([this, w] { worker_loop(w); });
  }
}

WorkerPool::~WorkerPool() {
  if (spawned_.empty()) return;
  shutdown_ = true;
  start_.arrive_and_wait();  // releases the workers into their exit
  for (std::thread& t : spawned_) t.join();
}

void WorkerPool::run_tasks(std::uint32_t task_count, const TaskBody& body) {
  ++stats_.batches;
  stats_.tasks_run += task_count;
  if (task_count == 0) return;

  if (threads_ == 1) {
    // Degenerate pool: the deterministic sequential schedule (ascending
    // task order on the calling thread) — the oracle mode's execution.
    for (std::uint32_t t = 0; t < task_count; ++t) body(t, 0);
    return;
  }

  // Every spawned worker waits in the start barrier, so the batch state
  // is the caller's to reset; the barrier publishes it.
  if (claimed_.size() < task_count) {
    claimed_ = std::vector<std::atomic<bool>>(task_count);
  }
  for (std::uint32_t t = 0; t < task_count; ++t) claimed_[t] = false;
  done_ = 0;
  body_ = &body;
  task_count_ = task_count;

  start_.arrive_and_wait();
  work(0);  // the caller is worker 0
  end_.arrive_and_wait();

  for (std::uint64_t& s : steals_) {
    stats_.steals += s;
    s = 0;
  }
}

void WorkerPool::worker_loop(std::uint32_t worker) {
  while (true) {
    start_.arrive_and_wait();
    if (shutdown_) return;
    work(worker);
    end_.arrive_and_wait();
  }
}

void WorkerPool::work(std::uint32_t worker) {
  const std::uint32_t n = task_count_;
  const auto run = [&](std::uint32_t t) {
    if (claimed_[t].exchange(true)) return false;  // exactly-once claim
    (*body_)(t, worker);
    ++done_;
    return true;
  };
  for (std::uint32_t t = worker; t < n; t += threads_) run(t);
  std::uint64_t steals = 0;
  for (std::uint32_t t = 0; t < n; ++t) {
    if (t % threads_ != worker && run(t)) ++steals;
  }
  steals_[worker] = steals;
  // Stay awake until the batch is done: a worker asleep in the end
  // barrier would cost the caller a wake-up in every epoch.
  while (done_ < n) std::this_thread::yield();
}

}  // namespace idea::runtime
