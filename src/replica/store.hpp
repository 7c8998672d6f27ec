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
/// writers of the file.  Two invariants keep appends, reads and peer
/// queries off the whole log:
///
///  * Seq contiguity.  For every writer w the log holds exactly the seqs
///    1..evv().count_of(w): apply_remote's reorder buffer admits only a
///    writer's next seq, and since a writer's stamps never decrease,
///    rollback_to drops only per-writer suffixes.  So the EVV alone says
///    how far a peer lags, and writer w's missing updates are one key
///    range of the log.
///  * Exact meta fold.  The meta value is a floating-point sum whose
///    (writer, seq) summation order defines its bits.  The store keeps,
///    per writer, the running sum after that writer's range of the walk.
///    Appending writer w's next update adds its delta to w's entry and
///    re-adds only the ranges of writers after w, so every addition
///    happens in the walk's exact order and the value is bit-identical to
///    a full walk for any deltas.  invalidate, rollback_to and
///    import_log's invalidation merges re-run the full O(n) walk.
///
/// A canonical-order index (pointers into the log's nodes) replaces the
/// sort a read used to pay.  It points into the store's own map, so a
/// store is neither copyable nor movable.
///
/// One MutationListener may watch the store: it hears every content
/// mutation, whichever layer caused it (a local write, a replication
/// push, a repair or migration batch, import_log, resolution's
/// invalidate or rollback).  On the sharded path the listener is the
/// rank's sync agent, for the rank's whole life, and it fans each
/// mutation out: anti-entropy's re-arm and the endpoint's checkpoint
/// dirty list.
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "replica/update.hpp"
#include "vv/extended_vv.hpp"

namespace idea::replica {

/// Observer of a store's content mutations (see
/// ReplicaStore::set_mutation_listener).  Listeners are borrowed, not
/// owned.
class MutationListener {
 public:
  /// Called after each mutation_count() bump.
  virtual void on_store_mutation() = 0;

 protected:
  ~MutationListener() = default;
};

class ReplicaStore {
 public:
  ReplicaStore(NodeId node, FileId file) : node_(node), file_(file) {}
  ReplicaStore(const ReplicaStore&) = delete;
  ReplicaStore& operator=(const ReplicaStore&) = delete;

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] FileId file() const { return file_; }

  /// Issue a local write stamped with the node's local clock.  Returns the
  /// stored update (with its assigned sequence number).  O(log n) plus the
  /// index insert (at the tail unless writer clocks skew) plus a re-add
  /// of the ranges of writers after this node.
  const Update& apply_local(SimTime local_now, std::string content,
                            double meta_delta);

  /// Learn a remote update.  Idempotent.  A writer's history must be applied
  /// in sequence order; updates arriving ahead of their predecessors (the
  /// network may reorder messages) are buffered and applied automatically
  /// once the gap fills.  Returns true if the update is now applied.
  /// Costs as apply_local, per applied update.
  bool apply_remote(const Update& u);

  /// Out-of-order updates currently parked awaiting predecessors.
  [[nodiscard]] std::size_t pending_remote() const {
    return pending_.size();
  }

  /// Point lookups, O(log n).
  [[nodiscard]] bool has(const UpdateKey& key) const;
  [[nodiscard]] const Update* find(const UpdateKey& key) const;

  /// Updates this replica holds that `peer_counts` does not — the payload of
  /// a resolution/anti-entropy push — in (writer, seq) order.  The EVV says
  /// which writers the peer lags on; only those touch the log, each as one
  /// contiguous key range: O(writers + lagging writers · log n + missing),
  /// so a peer that lacks nothing costs no log lookup.
  [[nodiscard]] std::vector<Update> updates_ahead_of(
      const vv::VersionVector& peer_counts) const;

  /// How far a peer at `peer_counts` lags this replica: number of updates
  /// it is missing and the stamp of the oldest one.  Answered from the EVV
  /// alone in O(writers): per writer, mine − theirs versions, and the
  /// oldest is the stamp of seq theirs + 1 (a writer's stamps never
  /// decrease).  The read router probes this per routed read.
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
    std::size_t duplicates = 0;  ///< Already held.
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
  /// invalidation flag, which is OR'd in; a batch that merges any flag
  /// pays one O(n) meta walk.
  ImportReport import_log(const std::vector<Update>& updates);

  /// Mark an update invalidated (invalidate-both policy) and recompute the
  /// meta value with one O(n) walk.  Returns false if the update is
  /// unknown.
  bool invalidate(const UpdateKey& key);

  /// Keys of every invalidated update in the log, in (writer, seq) order.
  /// O(1): kept beside the meta fold (a sorted insert when an update
  /// arrives flagged, else rebuilt by the full walk), and empty in the
  /// common no-conflict case.
  [[nodiscard]] const std::vector<UpdateKey>& invalidated_keys() const {
    return invalidated_;
  }

  /// Drop every update with stamp > t and rebuild the version vector; the
  /// rollback path of §4.4.2 (bottom layer contradicted the top layer).
  /// Returns the number of updates discarded.  O(n).
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

  /// Updates in canonical display order (what a reader sees); O(n)
  /// copies from the canonical index, no sort.
  [[nodiscard]] std::vector<Update> ordered_contents() const;

  /// Shared immutable canonical-order view of the contents for zero-copy
  /// reads: every get between two replica mutations refcounts one
  /// allocation instead of copying the whole log.  Rebuilt lazily after
  /// any content mutation (updates, invalidation, rollback): O(1) when
  /// current, one O(n) ordered_contents() on the first call after.
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
  /// O(n), read off the canonical index.
  [[nodiscard]] std::uint64_t content_digest() const;

  /// Current critical meta-data value (sum of live meta_deltas).
  [[nodiscard]] double meta_value() const { return evv_.meta(); }

  [[nodiscard]] std::size_t update_count() const { return log_.size(); }
  /// This node's newest writer seq: by seq contiguity, its EVV count.
  [[nodiscard]] std::uint64_t local_seq() const {
    return evv_.count_of(node_);
  }

  /// Monotone count of content mutations (every apply/invalidate/rollback
  /// that changed what a reader would see).  DurableStorage's dirty
  /// test: a replica whose mutation_count is unchanged since its
  /// checkpoint record (same store) has nothing new to persist.  The
  /// anti-entropy agent keys its matched peers on it the same way.
  [[nodiscard]] std::uint64_t mutation_count() const {
    return mutation_count_;
  }

  /// Install the store's one mutation listener (nullptr removes it).  The
  /// listener must stay alive until it is removed or the store is gone.
  void set_mutation_listener(MutationListener* listener) {
    listener_ = listener;
  }

 private:
  /// Index an update just placed in the log: its EVV stamp, its canonical
  /// position, and its addition to its writer's fold entry (or its key in
  /// invalidated_).  The writers after it need refold_after().
  void admit(const Update& u);
  /// Re-add the fold ranges of every writer after `writer` and publish
  /// the meta value.
  void refold_after(NodeId writer);
  /// The full (writer, seq) walk: rebuild the fold and invalidated_ from
  /// the log and publish the meta value.
  void rewalk_meta();
  /// Every content mutation ends here: bump mutation_count, drop the
  /// shared message and read-view snapshots and tell the listener.
  void mutated();

  NodeId node_;
  FileId file_;
  std::uint64_t mutation_count_ = 0;
  MutationListener* listener_ = nullptr;
  std::map<UpdateKey, Update> log_;
  std::map<UpdateKey, Update> pending_;  ///< Reorder buffer.
  std::vector<UpdateKey> invalidated_;   ///< In (writer, seq) order.
  /// Per writer, in writer order: the running meta sum after that
  /// writer's range of the (writer, seq) walk; back() is the meta value.
  std::vector<std::pair<NodeId, double>> meta_fold_;
  /// Every logged update in CanonicalOrder, pointing into log_'s nodes.
  std::vector<const Update*> canonical_;
  vv::ExtendedVersionVector evv_;
  mutable std::shared_ptr<const vv::ExtendedVersionVector> snapshot_;
  mutable std::shared_ptr<const std::vector<Update>> contents_snapshot_;
};

}  // namespace idea::replica
