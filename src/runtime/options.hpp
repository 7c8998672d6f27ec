#pragma once
/// \file options.hpp
/// \brief Multicore runtime knobs (dependency-free so shard/ can embed
///        them; consumed by runtime::ShardedFleet).

#include <cstdint>

#include "util/time.hpp"

namespace idea::runtime {

/// How a deployment executes.  `threads == 1` (the default) is the
/// determinism oracle: the whole epoch protocol runs inline on the
/// calling thread through the existing single-threaded sim::Simulator
/// kernels — nothing is spawned, nothing is atomic-contended, and the
/// schedule is the canonical sequential one.  `threads > 1` executes the
/// same epoch protocol on a WorkerPool; a fixed-seed run must produce
/// byte-identical digests, message counts and metrics JSON in both modes
/// (tests/runtime/ enforces it).
struct RuntimeOptions {
  /// Worker threads (the caller participates as worker 0).
  std::uint32_t threads = 1;
  /// Ring segments the endpoint space is partitioned into — one pool task
  /// per epoch each, and the unit of replica-group confinement (every
  /// group lives entirely inside one segment, so endpoint-local state
  /// never needs locks).  0 derives max(threads, 1).  Note results depend
  /// on the segment count (it shapes the ring) but never on `threads`.
  std::uint32_t segments = 0;
  /// Epoch length: the barrier cadence.  All events at time <= T execute
  /// before any event > T becomes visible across segments; cross-segment
  /// messages flush at epoch edges (conveyor semantics) and land 20 ms
  /// after they were issued, rounded up to the next epoch edge.
  SimDuration epoch = msec(50);

  [[nodiscard]] std::uint32_t effective_segments() const {
    if (segments != 0) return segments;
    return threads == 0 ? 1 : threads;
  }
};

}  // namespace idea::runtime
