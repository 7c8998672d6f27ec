#pragma once
/// \file session.hpp
/// \brief ClientSession — the application-facing surface of the sharded
///        cluster.
///
/// Sessions replace the old ShardRouter front door.  A session is opened
/// against a ShardedCluster with a declared ConsistencyLevel and an
/// origin endpoint (where the client attaches); every operation funnels
/// through the cluster's RequestRouter, which owns replica selection:
///
///   Client client(cluster);
///   ClientSession s =
///       client.session({.level = ConsistencyLevel::quorum(), .origin = 3});
///   s.put(file, "stroke", 1.0);
///   auto read = s.read(file);                 // declared level
///   auto strong = s.read(file, ConsistencyLevel::strong());  // override
///
/// Reads and writes return OpHandles: the value is computed at issue
/// time (in-process replicas), completion follows the routed round trips
/// on the simulator clock, so callers chain on_complete() instead of
/// blocking on the loop.

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "adapt/slo.hpp"
#include "client/consistency.hpp"
#include "client/op_handle.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace idea::shard {
class ShardedCluster;
}

namespace idea::client {

struct SessionOptions {
  /// Declared consistency for this session's reads (per-op overridable).
  ConsistencyLevel level = ConsistencyLevel::strong();
  /// Declared durability for this session's writes (per-op overridable).
  /// The default w = 1 acks once the acting coordinator applied.
  WriteConcern write_concern = {};
  /// Endpoint the client attaches at — the latency model measures
  /// replica distance from here.  kNoNode models a client co-located
  /// with whatever endpoint serves it.
  NodeId origin = kNoNode;
  /// Serve repeat reads from the session's last snapshot of the file,
  /// with zero router traffic, while the snapshot is *provably* inside
  /// the declared bound.  Only a BoundedStaleness level with an age
  /// bound qualifies: the age of a cached view grows exactly with the
  /// sim clock (age_at_serve + elapsed), so the bound check needs no
  /// cluster contact — a versions bound does not have that property.
  /// The cache is invalidated by the session's own writes to the file,
  /// by close(), and by bound expiry.
  bool cache_reads = false;
  /// Opt into adaptive consistency: the cluster's ConsistencyController
  /// (config.adapt.enabled), acting on router escalations and measured
  /// stale reads, may serve this session's reads at a different level
  /// than declared — hot contended files escalate toward Strong/Quorum,
  /// cold files relax to Eventual, and BoundedStaleness bounds are
  /// renegotiated against the tenant's SLO.  Off (default) keeps the
  /// session byte-identical to a static one even on an adaptive cluster.
  bool adaptive = false;
  /// Tenant this session belongs to (SLO accounting + renegotiation
  /// scope).  Only meaningful with `adaptive`.
  std::uint32_t tenant = 0;
  /// Declare `slo` for `tenant` on the controller when the session
  /// opens.  Later declarations for the same tenant overwrite.
  bool declare_slo = false;
  adapt::Slo slo;
};

/// Ack of one routed write.
struct WriteAck {
  bool applied = false;  ///< false: the file had no live replica.
  NodeId coordinator = kNoNode;
  /// Confirmed replica applies (coordinator included; hinted stand-ins
  /// not).  1 under the default WriteConcern.
  std::uint32_t acks = 0;
  /// Crashed group members covered by hinted stand-ins (sloppy quorum).
  std::uint32_t hinted = 0;
  /// Whether the declared WriteConcern was met (acks + hinted >= w).
  /// Always equals `applied` under the default w = 1.
  bool w_satisfied = false;
};

struct SessionStats {
  std::uint64_t puts = 0;
  std::uint64_t blocked_puts = 0;
  std::uint64_t reads = 0;
  std::uint64_t escalated_reads = 0;
  /// Sum of per-read observed staleness (versions behind coordinator),
  /// for mean-staleness reporting.
  std::uint64_t staleness_versions_total = 0;
  SimDuration read_latency_total = 0;
  // Write concerns (zero under the default w = 1).
  std::uint64_t wack_puts = 0;         ///< Puts dispatched with w > 1.
  std::uint64_t wack_failed_puts = 0;  ///< Concern not met (give-up).
  std::uint64_t hinted_puts = 0;       ///< Puts that hinted a stand-in.
  // Session read cache (zero unless cache_reads is on).
  std::uint64_t cache_hits = 0;      ///< Reads served router-free.
  std::uint64_t cache_expiries = 0;  ///< Snapshots outside the bound.
};

class ClientSession {
 public:
  ClientSession(shard::ShardedCluster& cluster, SessionOptions options);

  ClientSession(ClientSession&&) = default;
  ClientSession(const ClientSession&) = delete;
  ClientSession& operator=(const ClientSession&) = delete;

  /// Route a write under the session's declared WriteConcern.  With the
  /// default w = 1 the handle is resolved on return: it acks once the
  /// acting coordinator applied and began replicating (one modeled round
  /// trip to that coordinator); with w > 1 the handle is *pending* and
  /// resolves only when w replica applies are confirmed (or the
  /// replication budget gives up — handle.ok() false, with value().acks
  /// still reporting what was confirmed).
  OpHandle<WriteAck> put(FileId file, std::string content,
                         double meta_delta = 0.0);

  /// Route a write under a per-operation override concern.
  OpHandle<WriteAck> put(FileId file, std::string content, double meta_delta,
                         const WriteConcern& concern);

  /// Route a read under the session's declared consistency level.
  OpHandle<ReadResult> read(FileId file);

  /// Route a read under a per-operation override level.
  OpHandle<ReadResult> read(FileId file, const ConsistencyLevel& level);

  /// Ensure the file is placed on its replica group (idempotent).
  bool open(FileId file);

  /// Close the file cluster-wide.  Returns whether it was open.
  bool close(FileId file);

  [[nodiscard]] const SessionOptions& options() const { return options_; }
  [[nodiscard]] const SessionStats& stats() const { return *stats_; }
  [[nodiscard]] shard::ShardedCluster& cluster() { return cluster_; }

 private:
  /// One cached read snapshot: the result as served, plus when.  The
  /// snapshot's provable staleness age at any later instant T is
  /// staleness_age + (T - served_at) — every update the replica was
  /// missing at serve time only gets older, and nothing newer is claimed.
  struct CachedRead {
    ReadResult snapshot;
    SimTime served_at = 0;
  };

  shard::ShardedCluster& cluster_;
  SessionOptions options_;
  /// Shared so in-flight write-concern callbacks outlive a moved-from
  /// session (sessions are movable; the callbacks capture the pointer).
  std::shared_ptr<SessionStats> stats_;
  /// Last served snapshot per file (only populated with cache_reads on).
  std::unordered_map<FileId, CachedRead> cache_;
};

/// Unified entry point (`idea::client::Client`): opens sessions against
/// one sharded cluster.  Apps, examples and benches construct a Client
/// and talk sessions; nothing outside the shard layer touches the
/// router or the cluster's per-endpoint services for data-path work.
class Client {
 public:
  explicit Client(shard::ShardedCluster& cluster) : cluster_(cluster) {}

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Open a session.  Sessions are independent; open as many as there
  /// are logical clients (e.g. one per scripted workload client).
  [[nodiscard]] ClientSession session(SessionOptions options = {}) {
    ++sessions_opened_;
    return ClientSession(cluster_, options);
  }

  [[nodiscard]] shard::ShardedCluster& cluster() { return cluster_; }
  [[nodiscard]] std::uint64_t sessions_opened() const {
    return sessions_opened_;
  }

 private:
  shard::ShardedCluster& cluster_;
  std::uint64_t sessions_opened_ = 0;
};

}  // namespace idea::client
