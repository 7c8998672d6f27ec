#pragma once
/// \file request_router.hpp
/// \brief Policy-driven request routing: the single choke point between
///        client sessions and the sharded cluster.
///
/// The old ShardRouter hard-wired every read to the file's coordinator.
/// RequestRouter owns replica selection instead: a read arrives with a
/// declared client::ConsistencyLevel and an origin endpoint, and the
/// router decides which replica(s) serve it —
///
///  * Strong            — the coordinator, unconditionally;
///  * EventualNearest   — the replica with the lowest latency-model RTT
///                        from the client's origin;
///  * BoundedStaleness  — a nearby replica picked with the help of the
///                        freshness hints piggybacked on anti-entropy
///                        digests, served only after an exact check that
///                        it is within the declared TACT-style bound
///                        (versions behind the coordinator, age of the
///                        oldest missing update); otherwise the read
///                        escalates to the coordinator;
///  * Quorum            — fan out to r replicas (always including the
///                        coordinator, since writes ack at W = 1), merge
///                        their logs by version vector, return the
///                        freshest view.
///
/// The router is migration-aware: while a file's post-migration state
/// stream is still in flight, non-coordinator replicas of the new group
/// are cold, so policy reads are pinned to the already-warm new
/// coordinator until the window passes.
///
/// Every write takes one path, write_with_concern: it goes to the file's
/// acting coordinator (the lowest alive rank, FileGroup::acting_rank),
/// whose ReplicaSyncAgent applies it and pushes it to the rest of the
/// group.  Under the default WriteConcern{1} the callback fires
/// synchronously after the local apply; WriteConcern{w > 1} additionally
/// waits for w - 1 peer acks, and routes around crashed members with
/// sloppy-quorum hinted handoff.

#include <cstdint>
#include <functional>
#include <vector>

#include "client/consistency.hpp"
#include "obs/observability.hpp"
#include "replica/update.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace idea::core {
class IdeaNode;
}

namespace idea::adapt {
class ConsistencyController;
}

namespace idea::shard {

class ShardedCluster;
struct FileGroup;

/// The router's last observation of one replica: it was seen holding
/// `versions` total updates at `at` (piggybacked on the anti-entropy
/// digest/repair exchange).  Each group rank of a placed file holds one:
/// a migrated group starts unhinted, and a crash forgets only the dead
/// rank's hint.  `known` tells a 0-version observation from none.
struct FreshnessHint {
  std::uint64_t versions = 0;
  SimTime at = 0;
  bool known = false;
};

struct RouterStats {
  std::uint64_t opens = 0;  ///< Placements created on demand.
  std::uint64_t writes = 0;
  /// Writes coordinated by a lower-ranked member because rank 0 was
  /// crashed (rank space is multi-writer, so failover is safe).
  std::uint64_t failover_writes = 0;
  std::uint64_t reads = 0;
  // Per-policy read counts.
  std::uint64_t strong_reads = 0;
  std::uint64_t nearest_reads = 0;
  std::uint64_t bounded_reads = 0;
  std::uint64_t bounded_escalations = 0;  ///< Bound exceeded; coordinator.
  std::uint64_t quorum_reads = 0;
  /// Adaptive reads the controller served at a level other than the
  /// session's declared one.
  std::uint64_t adapted_reads = 0;
  std::uint64_t migration_window_reads = 0;  ///< Pinned to warm coordinator.
  std::uint64_t freshness_hints = 0;  ///< Hint-table updates ingested.
  /// Decayed hint entries overwritten or purged (see note_freshness).
  std::uint64_t expired_hints = 0;
  // Write concerns (zero until a client declares w > 1).
  std::uint64_t wack_writes = 0;    ///< Writes dispatched with w > 1.
  std::uint64_t sloppy_writes = 0;  ///< Writes where a hint counted to w.
  std::uint64_t hinted_writes = 0;  ///< Hints queued at stand-ins.
};

/// Per-read routing context beyond the declared level: whether the
/// session opted into adaptive consistency, and which tenant it belongs
/// to (for SLO accounting).  Default-constructed = a static session,
/// whose routing is byte-identical to the pre-adaptive build.
struct ReadContext {
  bool adaptive = false;
  std::uint32_t tenant = 0;
};

class RequestRouter {
 public:
  explicit RequestRouter(ShardedCluster& cluster) : cluster_(cluster) {}

  RequestRouter(const RequestRouter&) = delete;
  RequestRouter& operator=(const RequestRouter&) = delete;

  // ------------------------------------------------------------------
  // Placement / lifecycle
  // ------------------------------------------------------------------

  /// Ensure the file is open on its whole replica group; returns its
  /// record, nullptr on an empty ring or when every member is down.
  FileGroup* open(FileId file);

  /// Close the file on every group member.  Returns whether it was open.
  bool close(FileId file);

  // ------------------------------------------------------------------
  // Data path
  // ------------------------------------------------------------------

  /// What one write-concern dispatch decided (issue-time view; the ack
  /// outcome arrives through the callback).
  struct WriteDispatch {
    bool applied = false;        ///< Coordinator applied the write.
    NodeId coordinator = kNoNode;
    std::uint32_t effective_w = 1;  ///< Concern resolved against the group.
    std::uint32_t hinted = 0;    ///< Crashed members hinted to stand-ins.
  };

  /// Completion of a write-concern write: `acks` is the coordinator-side
  /// count of confirmed group applies (local one included, hinted
  /// stand-ins NOT — add `hinted`); 0 means the write never applied.
  /// `coordinator` is the acting coordinator that ran the put.
  using WriteAckCallback = std::function<void(
      bool satisfied, std::uint32_t acks, std::uint32_t hinted,
      NodeId coordinator)>;

  /// Route a write to the file's acting coordinator, which replicates it
  /// to the group, under a client-declared WriteConcern.  Opens the file
  /// on first touch.  Resolves w against the file's group, and when fewer
  /// than w members are alive performs a sloppy-quorum write: each
  /// crashed member the concern needs is covered by a hint durably queued
  /// at a live stand-in endpoint (counting toward w), to be drained back
  /// through anti-entropy when the member restarts.  `on_result` fires
  /// exactly once — synchronously when w resolves to 1 or the write was
  /// unroutable.  A traced write (`tc` active) has its
  /// replication fan-out recorded under `tc`'s trace.
  WriteDispatch write_with_concern(FileId file, std::string content,
                                   double meta_delta,
                                   const client::WriteConcern& concern,
                                   WriteAckCallback on_result,
                                   const obs::TraceContext& tc = {});

  /// Route a read under `level` from a client attached at `origin`.
  /// Returns an empty result (ok() == false) on an empty ring.  A traced
  /// read (`tc` active) records serve/escalate/fan-out decision spans,
  /// and a traced read that observes staleness parks `tc` as the file's
  /// pending repair trace so the healing anti-entropy round joins the
  /// span tree.  When `ctx.adaptive` and the cluster runs a
  /// ConsistencyController, the controller's current per-file target
  /// overrides `level` (ReadResult::effective_level says what was
  /// actually served); every routed read — adaptive or not — feeds the
  /// controller's contention signals.
  [[nodiscard]] client::ReadResult read(FileId file,
                                        const client::ConsistencyLevel& level,
                                        NodeId origin,
                                        const obs::TraceContext& tc = {},
                                        const ReadContext& ctx = {});

  // ------------------------------------------------------------------
  // Routing inputs (fed by the shard layer)
  // ------------------------------------------------------------------

  /// Ingest a freshness hint: a replica was observed holding `versions`
  /// total updates at `at`.  Guides bounded-staleness replica selection;
  /// the serve-time bound check stays exact.  Hints age out on the sim
  /// clock (config.freshness_hint_ttl): a decayed hint stops informing
  /// selection and is overwritten by the next observation even if that
  /// one shows fewer versions — version counts are only monotone within
  /// a replica incarnation.
  void note_freshness(FreshnessHint& hint, std::uint64_t versions,
                      SimTime at);

  /// Drop a hint whose replica's volatile state just died (a crash): a
  /// restarted incarnation must not be preferred on its pre-crash
  /// reputation.  Counted in expired_hints when a hint was held.
  void forget_hint(FreshnessHint& hint);

  /// note_freshness() for `endpoint`'s replica of `file`; a no-op unless
  /// the file is placed and `endpoint` is in its group.
  void note_freshness(FileId file, NodeId endpoint, std::uint64_t versions,
                      SimTime at);

  /// Last hinted version count for (file, endpoint); 0 if never hinted,
  /// not a group member, or if the hint has aged past the decay horizon.
  [[nodiscard]] std::uint64_t freshness_hint(FileId file,
                                             NodeId endpoint) const;

  /// Whether the file's post-migration state stream may still be in
  /// flight (its new non-coordinator replicas are cold, so policy reads
  /// pin to the new coordinator).
  [[nodiscard]] bool in_migration_window(FileId file) const;

  /// Round-trip estimate between a client origin and an endpoint under
  /// the cluster's latency model (mean, not sampled — routing must not
  /// perturb the simulation's RNG streams).  kNoNode origins model a
  /// client co-located with the endpoint it talks to.  Sessions use the
  /// same estimate for write-ack completion, so read and write
  /// latencies always speak the same distance model.
  [[nodiscard]] SimDuration rtt(NodeId origin, NodeId endpoint) const;

  [[nodiscard]] const RouterStats& stats() const { return stats_; }

 private:
  /// Whether the hint holds an observation still inside the decay horizon
  /// (config.freshness_hint_ttl).
  [[nodiscard]] bool hint_live(const FreshnessHint& hint) const;

  /// The policy's preferred serving rank of `group`.  `use_hints` biases
  /// selection toward replicas recently hinted fresh (bounded staleness),
  /// measuring their lag against the acting coordinator `acting`;
  /// otherwise pure latency.
  [[nodiscard]] std::uint32_t pick_replica(const FileGroup& group,
                                           std::uint32_t acting,
                                           NodeId origin,
                                           bool use_hints) const;

  /// Exact staleness of `endpoint`'s replica vs the coordinator at serve
  /// time: versions behind, and the age of the oldest missing update.
  void measure_staleness(core::IdeaNode& coordinator, core::IdeaNode& replica,
                         std::uint64_t& versions, SimDuration& age) const;

  [[nodiscard]] client::ReadResult serve_single(
      FileId file, const FileGroup& group, std::uint32_t rank, NodeId origin,
      const obs::TraceContext& tc = {});

  /// Quorum read over `group`, always including the acting coordinator
  /// `acting`.
  [[nodiscard]] client::ReadResult serve_quorum(
      FileId file, const FileGroup& group, std::uint32_t acting,
      NodeId origin, std::uint32_t r, const obs::TraceContext& tc = {});

  /// The policy dispatch read() wraps: routes one read at an
  /// already-resolved level.  This is the pre-adaptive read() body,
  /// byte-identical for static sessions.
  [[nodiscard]] client::ReadResult route_read(
      FileId file, const client::ConsistencyLevel& level, NodeId origin,
      const obs::TraceContext& tc);

  /// The deployment's observability (nullptr when disabled).
  [[nodiscard]] obs::Observability* observability() const;

  ShardedCluster& cluster_;
  RouterStats stats_;
};

}  // namespace idea::shard
