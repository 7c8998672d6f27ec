#pragma once
/// \file consistency.hpp
/// \brief Declared consistency levels for client sessions.
///
/// The paper's thesis is that applications *declare* the consistency they
/// need and the infrastructure adapts.  The session API makes that literal:
/// a ClientSession carries a ConsistencyLevel, and the RequestRouter turns
/// it into a replica-selection policy per read.
///
///  * Strong            — read the file's coordinator (today's behavior;
///                        every acked write is visible).
///  * BoundedStaleness  — serve from a non-coordinator replica only if it
///                        is within a declared TACT-style bound (versions
///                        behind the coordinator, and age of the oldest
///                        missing update); otherwise escalate to the
///                        coordinator.
///  * EventualNearest   — latency-model-aware nearest replica, whatever
///                        its freshness.
///  * Quorum            — fan out to r replicas, merge their logs by
///                        version vector, return the freshest view.  Read
///                        quorums always include the acting coordinator,
///                        so with the default W = 1 write side R ∩ W ≠ ∅
///                        by construction; declaring WriteConcern{w} with
///                        R + W > N keeps that intersection through any
///                        single replica failure as well.

#include <cstdint>
#include <memory>
#include <vector>

#include "replica/update.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace idea::client {

enum class Level : std::uint8_t {
  kStrong,
  kBoundedStaleness,
  kEventualNearest,
  kQuorum,
};

/// A declared consistency level plus its policy parameters.  Construct via
/// the named factories; default-constructed is Strong.
struct ConsistencyLevel {
  Level level = Level::kStrong;
  /// BoundedStaleness: maximum versions a serving replica may lag the
  /// coordinator by.
  std::uint64_t max_versions = 0;
  /// BoundedStaleness: maximum age of the oldest update the serving
  /// replica is missing; 0 means "no age bound".
  SimDuration max_age = 0;
  /// Quorum: replicas to contact; 0 means majority (k/2 + 1).
  std::uint32_t quorum_r = 0;

  [[nodiscard]] static ConsistencyLevel strong() { return {}; }

  [[nodiscard]] static ConsistencyLevel bounded_staleness(
      std::uint64_t max_versions, SimDuration max_age = 0) {
    ConsistencyLevel c;
    c.level = Level::kBoundedStaleness;
    c.max_versions = max_versions;
    c.max_age = max_age;
    return c;
  }

  [[nodiscard]] static ConsistencyLevel eventual_nearest() {
    ConsistencyLevel c;
    c.level = Level::kEventualNearest;
    return c;
  }

  [[nodiscard]] static ConsistencyLevel quorum(std::uint32_t r = 0) {
    ConsistencyLevel c;
    c.level = Level::kQuorum;
    c.quorum_r = r;
    return c;
  }

  friend bool operator==(const ConsistencyLevel&,
                         const ConsistencyLevel&) = default;
};

/// Declared write-side durability: how many replica applies a put must
/// collect before its OpHandle completes.  The read-side dual of
/// ConsistencyLevel — together they span the R×W matrix (R + W > N makes
/// quorum reads immune to any single stale replica, because every read
/// quorum intersects every write quorum).
///
///  * w = 1 (default) — ack at the acting coordinator alone, once it
///    applied the write and began replicating it.
///  * w = 0           — majority (k/2 + 1), mirroring Quorum{r = 0}.
///  * w = n           — n applies, clamped to the group size.
///
/// When a group member sits inside a crash window the coordinator may
/// count a *hinted* stand-in toward w (a sloppy quorum): the update is
/// durably parked at a live non-member and drains back through
/// anti-entropy when the member returns.
struct WriteConcern {
  /// Replica applies (coordinator included) required to ack; 0 = majority.
  std::uint32_t w = 1;

  [[nodiscard]] static WriteConcern one() { return {1}; }
  [[nodiscard]] static WriteConcern majority() { return {0}; }
  /// Every group member (clamped to k at dispatch time).
  [[nodiscard]] static WriteConcern all() { return {UINT32_MAX}; }

  /// The ack target for a replica group of `k`.
  [[nodiscard]] std::uint32_t resolve(std::uint32_t k) const {
    const std::uint32_t target = w == 0 ? k / 2 + 1 : w;
    return target < 1 ? 1 : (target > k ? k : target);
  }

  friend bool operator==(const WriteConcern&, const WriteConcern&) = default;
};

/// What one routed read returned, beyond the data itself: where it was
/// served, how stale the served view was relative to the coordinator at
/// serve time, and the client-observed latency the routing implies.
struct ReadResult {
  /// Canonical-order view of the served replica (shared immutable
  /// snapshot — single-replica reads are zero-copy; quorum reads own a
  /// freshly merged vector).
  std::shared_ptr<const std::vector<replica::Update>> updates;
  NodeId served_by = kNoNode;  ///< Endpoint whose view won.
  std::uint32_t replicas_contacted = 0;
  /// BoundedStaleness fell back to the coordinator (bound exceeded).
  bool escalated = false;
  /// Read was routed during a migration stream window (served by the
  /// already-warm new coordinator).
  bool migration_window = false;
  /// Versions the served view lagged the coordinator by at serve time.
  std::uint64_t staleness_versions = 0;
  /// Age of the oldest update the served view was missing (0 if none).
  SimDuration staleness_age = 0;
  /// Client-observed latency under the latency model: round trip to the
  /// serving replica, or the slowest round trip of a quorum fan-out.
  SimDuration latency = 0;
  /// The level the read was actually served at.  Equals the declared
  /// level for static sessions; adaptive sessions may see the
  /// controller's current per-file override instead.
  Level effective_level = Level::kStrong;

  [[nodiscard]] bool ok() const { return updates != nullptr; }
};

}  // namespace idea::client
