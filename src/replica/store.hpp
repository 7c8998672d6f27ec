#pragma once
/// \file store.hpp
/// \brief Per-node replica of one shared file: update log + extended VV.
///
/// This is the "general distributed file system" the paper assumes beneath
/// IDEA: it guarantees read/write correctness for the local replica (apply
/// is idempotent, the log is the source of truth, meta-data is recomputed
/// deterministically) and exposes exactly what the consistency layer needs:
/// the extended version vector, the updates a peer is missing, snapshots and
/// rollback.
///
/// Costs below are in n = updates in the log and writers = distinct
/// writers of the file.  Every content mutation pays one O(n)
/// recompute_meta walk; the per-message and per-read queries (peer
/// deltas, staleness probes, invalidated keys, current snapshots) do not
/// walk the log.

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "replica/update.hpp"
#include "vv/extended_vv.hpp"

namespace idea::replica {

class ReplicaStore {
 public:
  ReplicaStore(NodeId node, FileId file) : node_(node), file_(file) {}

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] FileId file() const { return file_; }

  /// Issue a local write stamped with the node's local clock.  Returns the
  /// stored update (with its assigned sequence number).
  const Update& apply_local(SimTime local_now, std::string content,
                            double meta_delta);

  /// Learn a remote update.  Idempotent.  A writer's history must be applied
  /// in sequence order; updates arriving ahead of their predecessors (the
  /// network may reorder messages) are buffered and applied automatically
  /// once the gap fills.  Returns true if the update is now applied.
  bool apply_remote(const Update& u);

  /// Out-of-order updates currently parked awaiting predecessors.
  [[nodiscard]] std::size_t pending_remote() const {
    return pending_.size();
  }

  /// Point lookups, O(log n).
  [[nodiscard]] bool has(const UpdateKey& key) const;
  [[nodiscard]] const Update* find(const UpdateKey& key) const;

  /// Updates this replica holds that `peer_counts` does not — the payload of
  /// a resolution/anti-entropy push — in (writer, seq) order.  Writer w's
  /// missing updates are one contiguous key range of the log, so the query
  /// hops writer to writer: O(writers · log n + missing), never a walk of
  /// the whole log.  The EVV overload reads the peer's counts in place
  /// (no counts() vector is built).
  [[nodiscard]] std::vector<Update> updates_ahead_of(
      const vv::VersionVector& peer_counts) const;
  [[nodiscard]] std::vector<Update> updates_ahead_of(
      const vv::ExtendedVersionVector& peer) const;

  /// How far a peer at `peer_counts` lags this replica: number of updates
  /// it is missing and the stamp of the oldest one.  Same per-writer range
  /// walk as updates_ahead_of, O(writers · log n + missing), but counts in
  /// place — no update copies — so the read router can probe staleness per
  /// routed read without touching contents.
  struct StalenessProbe {
    std::uint64_t versions = 0;
    SimTime oldest_stamp = 0;  ///< Meaningless when versions == 0.
  };
  [[nodiscard]] StalenessProbe staleness_ahead_of(
      const vv::VersionVector& peer_counts) const;
  [[nodiscard]] StalenessProbe staleness_ahead_of(
      const vv::ExtendedVersionVector& peer) const;

  /// The full applied log as a flat batch, in (writer, seq) order — the
  /// state a migration streams to a file's new replica group.  Carries
  /// invalidation flags, so the importer reproduces the meta value too.
  /// O(n) copies.
  [[nodiscard]] std::vector<Update> export_log() const;

  /// What one import_log() call did, per update in the batch.
  struct ImportReport {
    std::size_t applied = 0;     ///< Newly added to the log (including any
                                 ///< parked successors the batch unblocked).
    std::size_t duplicates = 0;  ///< Already held (or covered by counts).
    /// Invalidation flags OR'd onto updates already held un-flagged: the
    /// batch knew a resolution outcome this replica had missed.
    std::size_t invalidation_merges = 0;
  };

  /// Ingest a state batch (typically another replica's export_log()).
  /// Every new update goes through apply_remote, so the import is
  /// idempotent, tolerates overlap with updates already held, and adjusts
  /// local_seq when the batch contains this node's own writer history (a
  /// migrated or restarted coordinator continues its predecessor's
  /// sequence).  Updates already held contribute at most their
  /// invalidation flag, which is OR'd in.
  ImportReport import_log(const std::vector<Update>& updates);

  /// Mark an update invalidated (invalidate-both policy) and recompute the
  /// meta value.  Returns false if the update is unknown.
  bool invalidate(const UpdateKey& key);

  /// Keys of every invalidated update in the log, in (writer, seq) order.
  /// O(1): the list is collected by the meta walk every mutation already
  /// runs, and is empty in the common no-conflict case.
  [[nodiscard]] const std::vector<UpdateKey>& invalidated_keys() const {
    return invalidated_;
  }

  /// Drop every update with stamp > t and rebuild the version vector; the
  /// rollback path of §4.4.2 (bottom layer contradicted the top layer).
  /// Returns the number of updates discarded.
  std::size_t rollback_to(SimTime t);

  /// The extended version vector describing this replica.
  [[nodiscard]] const vv::ExtendedVersionVector& evv() const { return evv_; }

  /// Shared immutable copy of the EVV for zero-copy message bodies: every
  /// probe/reply/scan between two replica mutations refcounts one
  /// allocation instead of copying the stamp lists per message.  Rebuilt
  /// lazily after any mutation (updates, invalidation, rollback, triple):
  /// O(1) when current, one O(n) stamp copy on the first call after.
  [[nodiscard]] const std::shared_ptr<const vv::ExtendedVersionVector>&
  evv_snapshot() const {
    if (snapshot_ == nullptr) {
      snapshot_ = std::make_shared<const vv::ExtendedVersionVector>(evv_);
    }
    return snapshot_;
  }

  /// Attach a freshly computed error triple (done by the detection layer).
  void set_triple(const vv::TactTriple& t) {
    evv_.set_triple(t);
    snapshot_.reset();
  }

  /// Updates in canonical display order (what a reader sees); O(n log n).
  [[nodiscard]] std::vector<Update> ordered_contents() const;

  /// Shared immutable canonical-order view of the contents for zero-copy
  /// reads: every get between two replica mutations refcounts one
  /// allocation instead of copying the whole log.  Rebuilt lazily after
  /// any content mutation (updates, invalidation, rollback): O(1) when
  /// current, one O(n log n) ordered_contents() on the first call after.
  [[nodiscard]] const std::shared_ptr<const std::vector<Update>>&
  contents_snapshot() const {
    if (contents_snapshot_ == nullptr) {
      contents_snapshot_ =
          std::make_shared<const std::vector<Update>>(ordered_contents());
    }
    return contents_snapshot_;
  }

  /// Read-only view of the raw update log, keyed by (writer, seq) — not
  /// canonical order.  Lets scans (e.g. a kv lookup for one key) walk the
  /// log in place instead of copying every update.
  [[nodiscard]] const std::map<UpdateKey, Update>& log() const {
    return log_;
  }

  /// Order-sensitive digest of the canonical contents; equal digests mean
  /// replicas converged byte-for-byte.  Used heavily by convergence tests.
  /// O(n log n).
  [[nodiscard]] std::uint64_t content_digest() const;

  /// Current critical meta-data value (sum of live meta_deltas).
  [[nodiscard]] double meta_value() const { return evv_.meta(); }

  [[nodiscard]] std::size_t update_count() const { return log_.size(); }
  [[nodiscard]] std::uint64_t local_seq() const { return local_seq_; }

  /// Monotone count of content mutations (every apply/invalidate/rollback
  /// that changed what a reader would see).  The incremental checkpoint
  /// engine's dirty test: a replica whose mutation_count is unchanged
  /// since the last checkpoint epoch has nothing new to persist.
  [[nodiscard]] std::uint64_t mutation_count() const {
    return mutation_count_;
  }

 private:
  /// Recount the meta value and the invalidated-key list after a content
  /// mutation.  A full O(n) walk on purpose: the meta value is a floating-
  /// point sum whose (writer, seq) summation order defines its bits, so an
  /// incremental update would change results across replicas and replays.
  void recompute_meta();

  NodeId node_;
  FileId file_;
  std::uint64_t local_seq_ = 0;
  std::uint64_t mutation_count_ = 0;
  std::map<UpdateKey, Update> log_;
  std::map<UpdateKey, Update> pending_;  ///< Reorder buffer.
  std::vector<UpdateKey> invalidated_;   ///< Rebuilt by recompute_meta.
  vv::ExtendedVersionVector evv_;
  mutable std::shared_ptr<const vv::ExtendedVersionVector> snapshot_;
  mutable std::shared_ptr<const std::vector<Update>> contents_snapshot_;
};

}  // namespace idea::replica
