#pragma once
/// \file simulator.hpp
/// \brief Deterministic discrete-event simulation kernel.
///
/// The kernel is the substrate that replaces the paper's Planet-Lab testbed:
/// protocol code schedules callbacks at simulated times, and the kernel runs
/// them in (time, insertion) order.  Ties are broken by insertion sequence so
/// runs are exactly reproducible — a requirement for every experiment bench
/// and for the property tests that replay seeds.
///
/// Storage is a slab of recycled event slots plus a binary heap of small
/// POD entries: the heap sifts 24-byte records instead of std::function
/// objects, slots (and their std::function small-buffer storage) are reused
/// across events, and cancellation is a tombstone flag on the slot — popped
/// entries check one byte instead of probing an unordered_set per pop.
/// Periodic chains re-arm into their original slot, so one EventId stays
/// valid for cancel() across re-arms and the original insertion key keeps
/// the seed-identical (time, insertion) tie-break order.
///
/// The kernel is single-threaded on purpose (CP.4 — tasks, not threads; all
/// parallelism in the *protocols* is virtual).  A separate ThreadTransport in
/// src/net demonstrates the middleware under real concurrency.

#include <cstdint>
#include <functional>
#include <vector>

#include "obs/metrics.hpp"
#include "util/thread_owner.hpp"
#include "util/time.hpp"

namespace idea::sim {

/// Identifier of a scheduled event, usable for cancellation.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEvent = 0;

/// Discrete-event simulator: a priority queue of timed callbacks.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.  Monotonically non-decreasing.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedule `fn` at absolute time `t` (>= now).  Returns a cancel handle.
  EventId schedule_at(SimTime t, std::function<void()> fn);

  /// Schedule `fn` after `delay` microseconds.
  EventId schedule_after(SimDuration delay, std::function<void()> fn);

  /// Schedule `fn` every `period`, first firing after `initial_delay`
  /// (defaults to one period).  The periodic chain stops when cancelled.
  EventId schedule_periodic(SimDuration period, std::function<void()> fn,
                            SimDuration initial_delay = -1);

  /// Cancel a pending event (one-shot or the whole periodic chain).
  /// Returns true if the event was still pending.
  bool cancel(EventId id);

  /// Run the next event, if any.  Returns false when the queue is empty.
  bool step();

  /// Run events until the queue is empty or `limit` events were processed.
  void run(std::uint64_t limit = UINT64_MAX);

  /// Run all events with time <= t, then advance the clock to exactly t.
  void run_until(SimTime t);

  /// Run for `d` more simulated microseconds.
  void run_for(SimDuration d) { run_until(now_ + d); }

  /// Number of events executed so far (diagnostic).
  [[nodiscard]] std::uint64_t events_processed() const {
    return events_processed_;
  }

  /// Number of events currently pending.  Exact: cancelled events leave
  /// the count immediately, a live periodic chain counts as one.
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Slots currently in the recycling pool (diagnostic: slab footprint is
  /// pool_size() + pending() slots, bounded by the historical high-water
  /// mark of concurrently pending events, not by events ever scheduled).
  [[nodiscard]] std::size_t pool_size() const { return slots_.size(); }

  /// Install a metrics sink: step() samples the event-queue depth into the
  /// "sim.queue_depth" histogram every 64 events (pure recording — sampling
  /// on the event counter keeps the cost off the per-event path and the
  /// samples identical across fixed-seed runs).
  void set_metrics(obs::Meter meter);

  /// Hand the kernel to another thread (debug-mode single-owner checks:
  /// the event-slot slab is thread-confined; the parallel runtime rebinds
  /// at each epoch hand-off, which the pool barrier synchronizes).
  void rebind_owner_thread() { owner_.rebind(); }

 private:
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// One slab slot: the callback plus chain/cancel state.  Recycled via an
  /// intrusive free list; `generation` disambiguates recycled slots so
  /// stale heap entries and stale EventIds are recognized.
  struct Slot {
    std::function<void()> fn;
    std::uint64_t order_key = 0;  ///< Insertion tie-break (stable per chain).
    SimDuration period = 0;       ///< >0: periodic chain.
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
    bool cancelled = false;  ///< Tombstone: skip and free when popped.
    bool queued = false;     ///< A heap entry exists for this generation.
  };

  /// Heap entry: plain data only, cheap to sift.
  struct QEntry {
    SimTime time;
    std::uint64_t key;   ///< Copy of the slot's order_key.
    std::uint32_t slot;
    std::uint32_t gen;

    /// Strict scheduling order: earlier time first, then insertion order.
    /// Total, so any correct heap pops the exact same sequence.
    [[nodiscard]] bool before(const QEntry& o) const {
      return time != o.time ? time < o.time : key < o.key;
    }
  };

  /// Two-band priority queue over QEntry.  Simulated deployments pend tens
  /// of thousands of second-scale periodic timers while messages fly at
  /// millisecond scale; keeping everything in one heap makes every
  /// send/pop sift through all of it.  Entries within `kBand` of the
  /// current horizon live in a small 4-ary "near" heap (the hot one); the
  /// rest wait in a "far" heap, and whenever the near band drains the
  /// entries due in the next band pop off it in order.  Both bands order
  /// by the same total (time, key) order and the bands partition time
  /// disjointly, so the pop sequence is exactly the single-heap sequence.
  class EventHeap {
   public:
    [[nodiscard]] bool empty() const {
      return near_.empty() && far_.empty();
    }
    [[nodiscard]] std::size_t size() const {
      return near_.size() + far_.size();
    }
    /// The global minimum.  May migrate far->near first (O(log far) per
    /// migrated entry, each entry at most once).
    [[nodiscard]] const QEntry& top() {
      if (near_.empty()) rebalance();
      return near_.front();
    }
    void push(const QEntry& e);
    void pop();

   private:
    /// Width of the near band (simulated microseconds).
    static constexpr SimTime kBand = 100'000;  // 100 ms

    void rebalance();
    static void sift_up(std::vector<QEntry>& heap);
    static void sift_down_from(std::vector<QEntry>& heap, std::size_t i);

    std::vector<QEntry> near_;  ///< time <= horizon_, 4-ary min-heap.
    std::vector<QEntry> far_;   ///< time >  horizon_, 4-ary min-heap.
    SimTime horizon_ = 0;
  };

  static constexpr EventId encode(std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(slot + 1) << 32) | gen;
  }
  static constexpr std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32) - 1;
  }
  static constexpr std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>(id);
  }

  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t index);
  EventId arm(SimTime t, std::function<void()> fn, SimDuration period);
  /// Time of the next event that will actually execute (kNever if none),
  /// reaping dead heap heads along the way.
  SimTime next_live_event_time();

  SimTime now_ = 0;
  std::uint64_t next_key_ = 1;
  std::uint64_t events_processed_ = 0;
  std::size_t live_ = 0;
  obs::Meter meter_;
  obs::MetricId queue_depth_metric_;
  util::ThreadOwner owner_;  ///< Debug: slab confinement stamp.
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  EventHeap queue_;
};

}  // namespace idea::sim
