#pragma once
/// \file hint_store.hpp
/// \brief Durable hinted-handoff queue for sloppy-quorum writes.
///
/// When a write carries a WriteConcern the coordinator must collect w
/// replica applies, but a group member sitting inside a crash window can
/// neither apply nor ack.  Dynamo's answer — which this reproduces — is a
/// *sloppy* quorum: the coordinator parks the update at a live stand-in
/// endpoint outside the group, counts the hint toward w, and the stand-in
/// hands the update back when the member returns, at which point the
/// ordinary shard.digest/repair anti-entropy exchange spreads it over the
/// real wire path.
///
/// Like replica/checkpoint.hpp's DurableStorage, the store models the
/// durable medium itself (the stand-in's disk): it survives the crash of
/// everything volatile, costs no wire traffic to write, and is drained —
/// not read in place — exactly once per returning target.  Updates are
/// keyed in rank space; when a file's group membership changes the old
/// member vector is what translates those keys.  Migration *re-mints*
/// hints instead of dropping them: the migration folds each hint's update
/// into the union snapshot (the key survives unchanged — the snapshot is
/// imported as-is and the new coordinator continues the lineage writer
/// sequence) and re-queues hints whose target is a still-crashed member
/// of the new group, so sloppy durability survives membership changes.
/// Only close_file() still drops.
///
/// Everything here is deterministic: hints drain in queue order and all
/// state derives from protocol events, never wall-clock — fixed-seed
/// replays that use hinted handoff are as replayable as ones that don't.

#include <cstdint>
#include <vector>

#include "replica/update.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace idea::replica {

/// One parked write awaiting its target's return.
struct HintedWrite {
  NodeId stand_in = kNoNode;  ///< Live non-member holding the hint.
  NodeId target = kNoNode;    ///< Crashed group member it is meant for.
  FileId file = 0;
  Update update;              ///< The applied update, rank-space key.
  SimTime queued_at = 0;
};

struct HintStoreStats {
  std::uint64_t queued = 0;
  std::uint64_t drained = 0;  ///< Handed back on a target's return.
  std::uint64_t dropped = 0;  ///< Purged with a closed file.
  /// Re-queued across a migration: the hint's target is a crashed member
  /// of the file's *new* group, so the parked update still owes it a
  /// durable hand-off.
  std::uint64_t reminted = 0;
  /// Retired across a migration: the target is no longer a (crashed)
  /// member of the new group, and the hint's update was folded into the
  /// migration snapshot — the obligation moved to the live group.
  std::uint64_t retired = 0;
};

class HintStore {
 public:
  void enqueue(HintedWrite hint);

  /// Remove and return every hint parked for `target`, in queue order
  /// (deterministic — the drain replays identically under a fixed seed).
  [[nodiscard]] std::vector<HintedWrite> drain_for(NodeId target);

  /// Purge the file's hints (the file is being closed for good).  Returns
  /// how many were dropped.
  std::size_t drop_file(FileId file);

  /// Remove and return the file's hints in queue order, *without*
  /// counting them dropped — the migration path decides per hint whether
  /// to re_mint() or retire() it.
  [[nodiscard]] std::vector<HintedWrite> take_file(FileId file);

  /// Re-queue a hint that survived a migration (target still a crashed
  /// member of the new group).
  void re_mint(HintedWrite hint);

  /// Account `count` hints whose obligation a migration absorbed (their
  /// updates were folded into the state snapshot).
  void retire(std::size_t count) { stats_.retired += count; }

  /// Hints currently parked (across all targets / for one target).
  [[nodiscard]] std::size_t depth() const { return hints_.size(); }
  [[nodiscard]] std::size_t depth_for(NodeId target) const;

  /// Read-only view of the parked queue (tests, obs dumps).
  [[nodiscard]] const std::vector<HintedWrite>& hints() const {
    return hints_;
  }

  [[nodiscard]] const HintStoreStats& stats() const { return stats_; }

 private:
  /// Remove and return the hints `match` accepts, in queue order; the
  /// rest keep theirs.
  template <typename Match>
  std::vector<HintedWrite> extract(Match match);

  std::vector<HintedWrite> hints_;  ///< Queue order; scanned on drain.
  HintStoreStats stats_;
};

}  // namespace idea::replica
