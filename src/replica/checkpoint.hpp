#pragma once
/// \file checkpoint.hpp
/// \brief Durable checkpoint engines for crash-stop/restart recovery.
///
/// A crashed endpoint loses its volatile state (every ReplicaStore it
/// hosted); what survives is whatever a CheckpointEngine persisted into
/// DurableStorage before the crash.  On restart the endpoint reloads each
/// owned shard from its latest durable checkpoint and heals only the
/// checkpoint→crash gap through the ordinary shard.digest/repair
/// anti-entropy exchange — O(delta) instead of the O(log) migration
/// stream a clean leave/rejoin would pay.
///
/// Two engines expose the classic write-amplification vs recovery-bytes
/// trade-off (libcrpm's undolog vs dirtybit split):
///
///  * FullSnapshotEngine — persists every hosted replica's full
///    export_log() image each period.  Maximum write amplification,
///    recovery always finds a complete image.
///
///  * IncrementalEngine — dirty-file tracking: a replica is persisted
///    only when its ReplicaStore::mutation_count() moved since the last
///    checkpoint epoch (an incarnation or group-epoch change always
///    counts as dirty).
///    Clean files cost nothing per period; recovery still finds a
///    complete image, because an unchanged replica's previous checkpoint
///    is by definition still current.
///
/// DurableStorage is a deterministic in-sim device: records are keyed by
/// (endpoint, shard/file, checkpoint epoch) and stamped with the writing
/// incarnation, held in ordered containers so iteration and retention
/// pruning replay identically under a fixed seed.  "Durable" means it
/// lives outside the endpoint's service object: crash_endpoint() drops
/// the service, the storage survives.

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
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
  SimTime taken_at = 0;
  /// Rank -> endpoint map of the replica group at checkpoint time.  The
  /// updates are keyed by rank-space writer ids, so a checkpoint is only
  /// loadable while the group membership (and thus the rank mapping) is
  /// unchanged; recovery discards records whose members moved.
  std::vector<NodeId> members;
  std::vector<Update> updates;
  std::uint64_t bytes = 0;  ///< Modeled serialized size.
};

/// Deterministic in-sim durable store for checkpoint records.
class DurableStorage {
 public:
  /// `retain` bounds history per (endpoint, file): older records are
  /// pruned as new ones land (always keeping at least the newest).
  explicit DurableStorage(std::uint32_t retain = 2)
      : retain_(retain < 1 ? 1 : retain) {}

  /// Persist a record.  Assigns the next checkpoint epoch for its
  /// (endpoint, file) key and prunes history beyond the retention bound.
  /// Returns the assigned epoch.
  std::uint64_t put(CheckpointRecord record);

  /// The newest record for (endpoint, file) regardless of incarnation —
  /// durable state belongs to the endpoint slot, not one of its lives.
  /// nullptr when nothing was ever checkpointed.
  [[nodiscard]] const CheckpointRecord* latest(NodeId endpoint,
                                               FileId file) const;

  /// Records currently held (after pruning).
  [[nodiscard]] std::size_t record_count() const;

  // Lifetime write accounting (pruning does not subtract).
  [[nodiscard]] std::uint64_t records_written() const {
    return records_written_;
  }
  [[nodiscard]] std::uint64_t bytes_written() const { return bytes_written_; }
  [[nodiscard]] std::uint64_t updates_written() const {
    return updates_written_;
  }

  [[nodiscard]] std::uint32_t retain() const { return retain_; }

 private:
  using Key = std::pair<NodeId, FileId>;
  std::map<Key, std::deque<CheckpointRecord>> records_;
  std::map<Key, std::uint64_t> next_epoch_;
  std::uint32_t retain_;
  std::uint64_t records_written_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t updates_written_ = 0;
};

/// One hosted replica offered to an engine's checkpoint pass.
struct ReplicaRef {
  FileId file = 0;
  const ReplicaStore* store = nullptr;
  const std::vector<NodeId>* members = nullptr;  ///< rank -> endpoint.
  /// The replica group's epoch.  Every group build (migration, a peer's
  /// restart, reopen) starts a new epoch with fresh stores whose
  /// mutation counts restart at 0.
  std::uint32_t group_epoch = 0;
};

/// What one checkpoint pass over one endpoint did.
struct CheckpointRunStats {
  std::uint64_t files_written = 0;
  std::uint64_t files_clean = 0;  ///< Skipped as unchanged (incremental).
  std::uint64_t updates_written = 0;
  std::uint64_t bytes_written = 0;
};

/// Strategy interface: how an endpoint's hosted replicas are persisted.
class CheckpointEngine {
 public:
  virtual ~CheckpointEngine() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Persist `replicas` (the endpoint's hosted stores, sorted by file id
  /// by the caller) into `storage`.  Called on the simulator clock; must
  /// draw no RNG and send no messages, so enabling checkpoints never
  /// perturbs a fixed-seed replay.
  virtual CheckpointRunStats checkpoint(NodeId endpoint,
                                        std::uint32_t incarnation,
                                        const std::vector<ReplicaRef>& replicas,
                                        SimTime now,
                                        DurableStorage& storage) = 0;

  /// Lifetime totals across every checkpoint() call.
  [[nodiscard]] const CheckpointRunStats& totals() const { return totals_; }

 protected:
  CheckpointRunStats totals_;
};

/// Full-image engine: every hosted replica is written every pass.
class FullSnapshotEngine final : public CheckpointEngine {
 public:
  [[nodiscard]] const char* name() const override { return "full"; }
  CheckpointRunStats checkpoint(NodeId endpoint, std::uint32_t incarnation,
                                const std::vector<ReplicaRef>& replicas,
                                SimTime now, DurableStorage& storage) override;
};

/// Dirty-file engine: a replica is written only when its mutation count
/// moved since this engine last persisted it, within the same incarnation
/// and group epoch (libcrpm dirtybit-style).
class IncrementalEngine final : public CheckpointEngine {
 public:
  [[nodiscard]] const char* name() const override { return "incremental"; }
  CheckpointRunStats checkpoint(NodeId endpoint, std::uint32_t incarnation,
                                const std::vector<ReplicaRef>& replicas,
                                SimTime now, DurableStorage& storage) override;

 private:
  struct Seen {
    std::uint32_t incarnation = 0;
    std::uint32_t group_epoch = 0;
    std::uint64_t mutations = 0;

    friend bool operator==(const Seen&, const Seen&) = default;
  };
  /// Last persisted (incarnation, group epoch, mutation_count) per
  /// (endpoint, file).
  std::map<std::pair<NodeId, FileId>, Seen> last_;
};

enum class CheckpointEngineKind {
  kNone,  ///< No durable state; a restarted endpoint recovers via AE only.
  kFull,
  kIncremental,
};

/// Cluster-level checkpoint configuration (embedded in the shard config).
struct CheckpointConfig {
  CheckpointEngineKind engine = CheckpointEngineKind::kNone;
  /// Per-endpoint checkpoint period on the simulator clock; 0 disables
  /// the timers even when an engine is selected.
  SimDuration period = 0;
  /// Records retained per (endpoint, file) in durable storage.
  std::uint32_t retain = 2;

  [[nodiscard]] bool enabled() const {
    return engine != CheckpointEngineKind::kNone && period > 0;
  }
};

/// nullptr for kNone.
std::unique_ptr<CheckpointEngine> make_checkpoint_engine(
    CheckpointEngineKind kind);

/// Modeled serialized size of one record (header + member map + updates).
std::uint64_t checkpoint_bytes(const CheckpointRecord& record);

}  // namespace idea::replica
