#pragma once
/// \file fleet.hpp
/// \brief Multicore deployment: the endpoint space partitioned into ring
///        segments, each segment a full ShardedCluster owned by one epoch
///        task, cross-segment traffic on the conveyor.
///
/// The partitioning exploits what the shard layer already guarantees: a
/// file's replica group is chosen from one ring, so giving every segment
/// its *own* ring (a disjoint slice of the endpoint space, seeded
/// per-segment) confines each replica group — and with it every piece of
/// endpoint-local state: per-file replicas and sync agents, checkpoint
/// timers, obs registries, the event and message slabs — entirely inside
/// one segment.  One worker thread runs a segment per epoch, so none of
/// that state ever needs a lock; a segment moves between workers only
/// across pool barriers.
///
/// What crosses segments is the *client tier*: fleet operations originate
/// at one segment and may target files placed on another.  Those ride the
/// Conveyor as batched packets — accumulated while the source's epoch task
/// runs, sealed at the epoch edge, executed by the owning segment next
/// epoch, with the reply conveyed back the same way.  Delivery timestamps
/// are epoch-edge-deterministic, so the merged history is a pure function
/// of (config, seed, segment count) — never of `threads`.
///
/// Oracle mode: `config.runtime.threads == 1` runs the identical epoch
/// protocol inline on the calling thread, through the same per-segment
/// sim::Simulator kernels — the canonical sequential schedule.  A
/// fixed-seed run must produce byte-identical per-endpoint digests,
/// per-type message counts and metrics JSON at any thread count
/// (tests/runtime/ enforces it, including under churn and crashes).

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "runtime/conveyor.hpp"
#include "runtime/options.hpp"
#include "runtime/parallel_sim.hpp"
#include "runtime/worker_pool.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::client {
class Client;
class ClientSession;
}  // namespace idea::client

namespace idea::runtime {

/// Open-loop fleet workload: every segment issues operations at a fixed
/// per-endpoint rate; a configurable fraction targets files owned by
/// *other* segments (the conveyor traffic).  Draws come from per-segment
/// forks of the deployment seed, so issuance is identical at any thread
/// count.
struct FleetWorkloadParams {
  double ops_per_endpoint_per_sec = 8.0;
  double read_fraction = 0.5;
  /// Fraction of operations targeting a file on another segment.
  double cross_segment_fraction = 0.25;
  SimDuration duration = sec(5);
};

/// One operation that crossed segments (or its reply riding back).
struct FleetMsg {
  enum class Kind : std::uint8_t { kPut, kGet, kPutReply, kGetReply };
  Kind kind = Kind::kGet;
  std::uint32_t origin = 0;  ///< Segment the op originated at.
  std::uint64_t op_id = 0;   ///< Origin-local id.
  FileId file = 0;
  SimTime issued_at = 0;  ///< Echoed through the reply for latency.
  std::string content;    ///< Put payload.
  double meta = 0.0;
  bool ok = false;             ///< Reply: operation outcome.
  std::uint64_t value_digest = 0;  ///< Reply: digest of the read value.
};

struct FleetStats {
  std::uint64_t local_ops = 0;    ///< Executed on the issuing segment.
  std::uint64_t remote_ops = 0;   ///< Shipped over the conveyor.
  std::uint64_t replies = 0;      ///< Remote completions received back.
  SimDuration remote_latency_total = 0;  ///< Sum of remote round trips.
  /// Order-sensitive digest over every remote completion (op id, outcome,
  /// value digest) — byte-equal across thread counts by contract.
  std::uint64_t op_digest = 0;
  ConveyorStats conveyor;
  WorkerPoolStats pool;
};

class ShardedFleet {
 public:
  /// `config.endpoints` is the fleet-wide endpoint count, split across
  /// `config.runtime.effective_segments()` segments (remainder endpoints
  /// go to the lowest segments).  Each segment derives its own seed from
  /// the deployment seed, so the fleet's behavior depends on the segment
  /// count but never on `config.runtime.threads`.
  explicit ShardedFleet(shard::ShardedClusterConfig config);
  ~ShardedFleet();

  ShardedFleet(const ShardedFleet&) = delete;
  ShardedFleet& operator=(const ShardedFleet&) = delete;

  // ------------------------------------------------------------------
  // Setup (before run)
  // ------------------------------------------------------------------

  /// Place files first..first+count-1, each on the segment its id hashes
  /// to (then on that segment's own ring).
  void place(FileId first, std::uint32_t count);

  /// Install the open-loop workload (call once, before running).
  void set_workload(FleetWorkloadParams params);

  /// Schedule `fn` against a segment's cluster at sim time `t`; it runs
  /// inside the owning worker's epoch task, so it may freely mutate the
  /// segment (crash/restart/churn scenarios in tests and benches).
  void schedule_on(std::uint32_t segment, SimTime t,
                   std::function<void(shard::ShardedCluster&)> fn);

  // ------------------------------------------------------------------
  // Time
  // ------------------------------------------------------------------

  void run_for(SimDuration d) { psim_->run_for(d); }
  void run_until(SimTime t) { psim_->run_until(t); }
  [[nodiscard]] SimTime now() const { return psim_->now(); }

  // ------------------------------------------------------------------
  // Results (between runs / after the run)
  // ------------------------------------------------------------------

  /// Order-sensitive per-endpoint content digests, keyed by the global
  /// endpoint id (segment-major).  The oracle equality check's subject.
  [[nodiscard]] std::vector<std::pair<NodeId, std::uint64_t>>
  endpoint_digests();

  /// Per-type wire message counts summed across segments.
  [[nodiscard]] std::map<std::string, std::uint64_t> message_counts() const;

  /// Byte-deterministic metrics JSON: every segment's observability
  /// export, concatenated in segment order.  Empty when observability is
  /// off in the config.
  [[nodiscard]] std::string metrics_json() const;

  /// Files converged across their whole group, fleet-wide.
  [[nodiscard]] std::size_t converged_files();

  [[nodiscard]] FleetStats stats() const;

  // ------------------------------------------------------------------
  // Topology
  // ------------------------------------------------------------------

  [[nodiscard]] std::uint32_t segments() const;
  [[nodiscard]] shard::ShardedCluster& segment(std::uint32_t s);
  [[nodiscard]] std::uint32_t segment_of_file(FileId file) const;
  /// Endpoints hosted by segment `s` (their global ids are offset(s) +
  /// local id).
  [[nodiscard]] std::uint32_t segment_endpoints(std::uint32_t s) const;
  [[nodiscard]] NodeId global_endpoint(std::uint32_t s, NodeId local) const;
  [[nodiscard]] const RuntimeOptions& runtime() const {
    return config_.runtime;
  }

 private:
  class Segment;  // the Partition implementation

  shard::ShardedClusterConfig config_;
  std::vector<std::unique_ptr<Segment>> segments_;
  std::unique_ptr<Conveyor<FleetMsg>> conveyor_;
  std::unique_ptr<WorkerPool> pool_;
  std::unique_ptr<ParallelSimulator> psim_;
};

}  // namespace idea::runtime
