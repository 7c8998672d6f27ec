/// \file primitives_test.cpp
/// \brief Units for the parallel-runtime building blocks: the worker pool,
///        the conveyor, and the epoch-barrier driver.  The concurrent
///        cases double as TSan targets (the sanitize CI job runs this
///        binary under -fsanitize=thread, repeatedly).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "runtime/conveyor.hpp"
#include "runtime/parallel_sim.hpp"
#include "runtime/worker_pool.hpp"

namespace idea::runtime {
namespace {

TEST(WorkerPool, SingleThreadRunsTasksInAscendingOrder) {
  WorkerPool pool(1);
  std::vector<std::uint32_t> order;
  pool.run_tasks(16, [&](std::uint32_t task, std::uint32_t worker) {
    EXPECT_EQ(worker, 0u);
    order.push_back(task);
  });
  std::vector<std::uint32_t> expected(16);
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(order, expected);  // the oracle schedule
}

TEST(WorkerPool, AllTasksRunExactlyOnceAcrossThreads) {
  WorkerPool pool(4);
  constexpr std::uint32_t kTasks = 5000;
  std::vector<std::atomic<std::uint32_t>> ran(kTasks);
  for (int batch = 0; batch < 3; ++batch) {
    for (auto& r : ran) r.store(0, std::memory_order_relaxed);
    pool.run_tasks(kTasks, [&](std::uint32_t task, std::uint32_t) {
      ran[task].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::uint32_t i = 0; i < kTasks; ++i) {
      ASSERT_EQ(ran[i].load(), 1u) << "batch " << batch << " task " << i;
    }
  }
  EXPECT_EQ(pool.stats().batches, 3u);
  EXPECT_EQ(pool.stats().tasks_run, 3u * kTasks);
}

TEST(WorkerPool, BarrierMakesSideEffectsVisibleToCaller) {
  WorkerPool pool(4);
  std::vector<std::uint64_t> cell(256, 0);  // plain, unsynchronized
  pool.run_tasks(256,
                 [&](std::uint32_t task, std::uint32_t) { cell[task] = task; });
  // run_tasks is a full barrier: plain reads below are ordered after the
  // workers' plain writes above.
  for (std::uint32_t i = 0; i < 256; ++i) ASSERT_EQ(cell[i], i);
}

TEST(WorkerPool, StalledWorkersHomeTasksRunElsewhere) {
  // Task 0 (home: worker 0) stalls until every other task is done, so
  // whichever worker claims it, the other must run the rest of both
  // workers' home tasks.
  WorkerPool pool(2);
  constexpr std::uint32_t kTasks = 8;
  std::vector<std::atomic<std::uint32_t>> ran(kTasks);
  std::atomic<std::uint32_t> others_done{0};
  bool others_finished_first = false;
  pool.run_tasks(kTasks, [&](std::uint32_t task, std::uint32_t) {
    ran[task].fetch_add(1, std::memory_order_relaxed);
    if (task != 0) {
      others_done.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (others_done.load(std::memory_order_relaxed) < kTasks - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    others_finished_first =
        others_done.load(std::memory_order_relaxed) == kTasks - 1;
  });
  EXPECT_TRUE(others_finished_first);
  for (std::uint32_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(ran[i].load(), 1u) << "task " << i;
  }
  EXPECT_GE(pool.stats().steals, 1u);
}

TEST(Conveyor, SealedPacketsDrainInTheNextEpochOnly) {
  Conveyor<int> c(2);
  c.post(0, 1, 7);
  c.post(0, 1, 8);
  c.seal(0, /*epoch=*/0);
  int drained = 0;
  // Same epoch: not yet visible (the edge is the flush instant).
  c.drain(1, /*epoch=*/0, [&](std::uint32_t, std::vector<int>& msgs) {
    drained += static_cast<int>(msgs.size());
  });
  EXPECT_EQ(drained, 0);
  c.drain(1, /*epoch=*/1, [&](std::uint32_t src, std::vector<int>& msgs) {
    EXPECT_EQ(src, 0u);
    ASSERT_EQ(msgs.size(), 2u);
    EXPECT_EQ(msgs[0], 7);  // post order preserved
    EXPECT_EQ(msgs[1], 8);
    drained += static_cast<int>(msgs.size());
  });
  EXPECT_EQ(drained, 2);
  // The drain emptied the side: epoch 2 seals into it again, and only
  // epoch 3 sees the new packet.
  c.post(0, 1, 9);
  c.seal(0, 2);
  std::vector<int> later;
  for (std::uint64_t epoch = 2; epoch <= 3; ++epoch) {
    c.drain(1, epoch, [&](std::uint32_t, std::vector<int>& msgs) {
      EXPECT_EQ(epoch, 3u);
      later.insert(later.end(), msgs.begin(), msgs.end());
    });
  }
  EXPECT_EQ(later, (std::vector<int>{9}));
  const ConveyorStats stats = c.stats();
  EXPECT_EQ(stats.messages, 3u);
  EXPECT_EQ(stats.packets, 2u);
  EXPECT_EQ(stats.drained, 2u);
  EXPECT_EQ(stats.max_packet, 2u);
  EXPECT_EQ(stats.lane_stalls, 0u);
}

TEST(Conveyor, DrainsSourcesAscendingInPostOrder) {
  Conveyor<int> c(3);
  c.post(2, 0, 20);
  c.post(1, 0, 10);
  c.post(2, 0, 21);
  c.post(1, 0, 11);
  c.post(1, 2, 12);  // another destination's lane
  // Seal order does not matter; the drain order is by source.
  c.seal(2, 4);
  c.seal(1, 4);
  std::vector<std::uint32_t> sources;
  std::vector<int> seen;
  c.drain(0, /*epoch=*/5, [&](std::uint32_t src, std::vector<int>& msgs) {
    sources.push_back(src);
    seen.insert(seen.end(), msgs.begin(), msgs.end());
  });
  EXPECT_EQ(sources, (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(seen, (std::vector<int>{10, 11, 20, 21}));
}

/// Toy partition: counts epochs and posts one message per epoch to its
/// peer through a conveyor, verifying the begin/run/end cadence.
class CountingPartition final : public Partition {
 public:
  CountingPartition(Conveyor<std::uint64_t>& conveyor, std::uint32_t self,
                    std::uint32_t peer)
      : conveyor_(conveyor), self_(self), peer_(peer) {}

  void begin_epoch(SimTime, std::uint64_t epoch) override {
    conveyor_.drain(self_, epoch,
                    [&](std::uint32_t, std::vector<std::uint64_t>& m) {
                      for (std::uint64_t v : m) received_ += v;
                    });
  }
  void run_until(SimTime end) override { now_ = end; }
  void end_epoch(SimTime, std::uint64_t epoch) override {
    conveyor_.post(self_, peer_, epoch + 1);
    conveyor_.seal(self_, epoch);
    ++epochs_;
  }

  [[nodiscard]] std::uint64_t epochs() const { return epochs_; }
  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] SimTime now() const { return now_; }

 private:
  Conveyor<std::uint64_t>& conveyor_;
  const std::uint32_t self_;
  const std::uint32_t peer_;
  SimTime now_ = 0;
  std::uint64_t epochs_ = 0;
  std::uint64_t received_ = 0;
};

std::pair<std::uint64_t, std::uint64_t> drive(std::uint32_t threads) {
  Conveyor<std::uint64_t> conveyor(2);
  CountingPartition a(conveyor, 0, 1);
  CountingPartition b(conveyor, 1, 0);
  WorkerPool pool(threads);
  ParallelSimulator psim(pool, {&a, &b}, msec(10));
  psim.run_until(msec(100));
  EXPECT_EQ(psim.now(), msec(100));
  EXPECT_EQ(a.now(), msec(100));
  EXPECT_EQ(a.epochs(), 10u);
  EXPECT_EQ(b.epochs(), 10u);
  return {a.received(), b.received()};
}

TEST(ParallelSimulator, EpochCadenceIsThreadCountInvariant) {
  const auto seq = drive(1);
  const auto par = drive(4);
  // Epochs 1..9 drain the peer's packets from epochs 0..8: sum 1..9 = 45.
  EXPECT_EQ(seq.first, 45u);
  EXPECT_EQ(seq.second, 45u);
  EXPECT_EQ(par, seq);
}

TEST(ParallelSimulator, PartialEpochAdvancesToExactTarget) {
  Conveyor<std::uint64_t> conveyor(2);
  CountingPartition a(conveyor, 0, 1);
  CountingPartition b(conveyor, 1, 0);
  WorkerPool pool(1);
  ParallelSimulator psim(pool, {&a, &b}, msec(10));
  psim.run_until(msec(25));  // 2.5 epochs: the tail epoch is short
  EXPECT_EQ(psim.now(), msec(25));
  EXPECT_EQ(a.now(), msec(25));
  EXPECT_EQ(a.epochs(), 3u);
}

}  // namespace
}  // namespace idea::runtime
