#pragma once
/// \file checkpoint.hpp
/// \brief Durable checkpoint store for crash-stop/restart recovery.
///
/// A crashed endpoint loses its volatile state (every ReplicaStore it
/// hosted); what survives is the DurableStorage record each hosted
/// replica was last checkpointed into.  On restart the endpoint reloads
/// each owned shard from that record and heals only the checkpoint→crash
/// gap through the ordinary shard.digest/repair anti-entropy exchange —
/// O(delta) instead of the O(log) migration stream a clean leave/rejoin
/// would pay.
///
/// The store holds exactly one record per (endpoint, file): the newest,
/// which is all recovery ever reads.  A checkpoint pass offers the store
/// only the hosted replicas that were built or mutated since the last
/// pass: each replica's sync agent puts it on its endpoint's dirty list
/// when it is built and on its first mutation after a pass, so a pass
/// costs O(dirty replicas), not O(placed files).
/// The store still does its own dirty test (libcrpm dirtybit-style): a
/// replica whose incarnation, group epoch and mutation count
/// (ReplicaStore::mutation_count()) still match its record is clean and
/// costs nothing; any other is persisted as a full export_log() image
/// that replaces the record.  Recovery always finds a complete image,
/// because a clean replica's record is by definition still current.
///
/// The store is a deterministic in-sim device: records sit in an ordered
/// map and are written on the simulator clock with no RNG draws and no
/// messages, so enabling checkpoints never perturbs a fixed-seed replay.
/// "Durable" means it lives outside the endpoint's service object:
/// crash_endpoint() drops the service, the storage survives.

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "replica/store.hpp"
#include "replica/update.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace idea::replica {

/// One durable checkpoint of one endpoint's replica of one file.
struct CheckpointRecord {
  NodeId endpoint = kNoNode;
  std::uint32_t incarnation = 0;  ///< Life of the endpoint that wrote it.
  FileId file = 0;
  std::uint64_t epoch = 0;  ///< Per-(endpoint, file) monotone counter.
  /// The replica group's epoch and the store's mutation_count() when the
  /// record was taken: with the incarnation, what the dirty test compares.
  std::uint32_t group_epoch = 0;
  std::uint64_t mutations = 0;
  SimTime taken_at = 0;
  /// Rank -> endpoint map of the replica group at checkpoint time.  The
  /// updates are keyed by rank-space writer ids, so a checkpoint is only
  /// loadable while the group membership (and thus the rank mapping) is
  /// unchanged; recovery discards records whose members moved.
  std::vector<NodeId> members;
  std::vector<Update> updates;
  std::uint64_t bytes = 0;  ///< Modeled serialized size.
};

/// One hosted replica offered to a checkpoint pass.
struct ReplicaRef {
  FileId file = 0;
  const ReplicaStore& store;
  const std::vector<NodeId>& members;  ///< rank -> endpoint.
  /// The replica group's epoch: every group opening (placement,
  /// migration, reopen) starts one, with fresh stores whose mutation
  /// counts restart at 0.  A member's restart keeps it and builds only
  /// that member's store, under a new incarnation.
  std::uint32_t group_epoch = 0;
};

/// Deterministic in-sim durable store: the newest checkpoint record of
/// every (endpoint, file).
class DurableStorage {
 public:
  /// Persist `replica` as `endpoint`'s record for its file, unless the
  /// record already describes it.  Returns the record written, or nullptr
  /// when the replica was clean.
  const CheckpointRecord* checkpoint(NodeId endpoint,
                                     std::uint32_t incarnation,
                                     const ReplicaRef& replica, SimTime now);

  /// The record for (endpoint, file) regardless of incarnation — durable
  /// state belongs to the endpoint slot, not one of its lives.  nullptr
  /// when nothing was ever checkpointed.
  [[nodiscard]] const CheckpointRecord* latest(NodeId endpoint,
                                               FileId file) const;

  /// Records currently held: one per (endpoint, file) ever checkpointed.
  [[nodiscard]] std::size_t record_count() const { return records_.size(); }

  // Lifetime write accounting (a replaced record does not subtract).
  [[nodiscard]] std::uint64_t records_written() const {
    return records_written_;
  }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::uint64_t updates_written() const {
    return updates_written_;
  }

 private:
  std::map<std::pair<NodeId, FileId>, CheckpointRecord> records_;
  std::uint64_t records_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t updates_written_ = 0;
};

enum class CheckpointEngineKind {
  kNone,  ///< No durable state; a restarted endpoint recovers via AE only.
  kIncremental,  ///< Each period persists the replicas that changed.
};

/// Cluster-level checkpoint configuration (embedded in the shard config).
struct CheckpointConfig {
  CheckpointEngineKind engine = CheckpointEngineKind::kNone;
  /// Per-endpoint checkpoint period on the simulator clock; 0 disables
  /// the timers even when checkpointing is selected.
  SimDuration period = 0;

  [[nodiscard]] bool enabled() const {
    return engine != CheckpointEngineKind::kNone && period > 0;
  }
};

/// Modeled serialized size of one record (header + member map + updates).
std::uint64_t checkpoint_bytes(const CheckpointRecord& record);

}  // namespace idea::replica
