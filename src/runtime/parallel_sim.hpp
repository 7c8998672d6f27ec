#pragma once
/// \file parallel_sim.hpp
/// \brief Epoch-barrier parallel driver over partitioned simulations.
///
/// A ParallelSimulator advances a set of Partitions — independent
/// discrete-event domains, each owning its own sim::Simulator — in
/// lockstep epochs: within [T, T+epoch) every partition runs its own
/// events in the canonical sequential order, and anything that must cross
/// partitions is handed over *at the epoch edge only* (the conveyor's
/// flush instant).  That yields the determinism contract the oracle mode
/// checks: all events at time <= T execute before any event > T is
/// visible across partitions, so the merged history is a function of the
/// model alone, never of thread scheduling.
///
/// The pool's barrier brackets each epoch on both sides; a partition's
/// state is touched by exactly one thread per epoch (whichever worker ran
/// its task — a partition changes workers only across barriers).  That
/// barrier is the runtime's only synchronization: it also orders every
/// conveyor hand-off.

#include <cstdint>
#include <vector>

#include "runtime/worker_pool.hpp"
#include "util/time.hpp"

namespace idea::runtime {

/// One worker-owned shard domain.  All three hooks run on the executing
/// worker's thread; begin/run/end for one partition are always called in
/// order within an epoch, with pool barriers between epochs.
class Partition {
 public:
  virtual ~Partition() = default;

  /// Start of an epoch: drain inbound conveyor packets, scheduling their
  /// deliveries at times >= `start`.
  virtual void begin_epoch(SimTime start, std::uint64_t epoch) = 0;

  /// Run local events with time <= `end`; advance the local clock to it.
  virtual void run_until(SimTime end) = 0;

  /// End of an epoch: seal outbound packets stamped with `epoch`.
  virtual void end_epoch(SimTime end, std::uint64_t epoch) = 0;
};

class ParallelSimulator {
 public:
  /// `pool` and `partitions` are borrowed and must outlive the driver.
  ParallelSimulator(WorkerPool& pool, std::vector<Partition*> partitions,
                    SimDuration epoch_length);

  /// Advance every partition to exactly `t`, one barrier per epoch.
  void run_until(SimTime t);
  void run_for(SimDuration d) { run_until(now_ + d); }

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] std::uint64_t epochs() const { return epoch_; }
  [[nodiscard]] WorkerPool& pool() { return pool_; }

 private:
  WorkerPool& pool_;
  std::vector<Partition*> partitions_;
  const SimDuration epoch_length_;
  SimTime now_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace idea::runtime
