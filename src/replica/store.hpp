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
/// writers of the file.
///
/// The log is its own read view.  Each update is stored once, in one
/// vector kept in CanonicalOrder (what a reader sees), behind a
/// shared_ptr that contents_snapshot() hands out as is.  Beside it, per
/// writer, the store keeps the view positions of that writer's seqs
/// 1..count, which give (writer, seq) access without a second copy.
///
///  * Copy on write.  Every mutation first takes the view for writing:
///    if a reader still holds the current view, the store clones it and
///    mutates the clone, so a held view never changes.  A reader that
///    keeps only a size or a digest drops its view before the next write,
///    and then nothing is cloned.  A fresh store shares one empty view
///    with every other store until its first update, so constructing one
///    allocates nothing.
///  * Reference lifetime.  The references apply_local() and find() return
///    point into the view and stay valid only until the store's next
///    mutation (any apply, import, invalidate or rollback): an append may
///    reallocate the vector and a mid-order insert shifts it.  Copy what
///    must outlive that.  A view from contents_snapshot() has no such
///    limit.
///  * Appends and batches.  An update whose stamp sorts last is a
///    push_back (amortized O(1)).  One that sorts earlier, such as a
///    second writer's update with an older stamp, is merged into place
///    with an O(n) shift.  A batch (import_log, a reorder-buffer drain)
///    appends all its updates first and then merges the sorted tail in
///    once, so it costs O(n + k log k) for k updates, never one shift per
///    update.
///
/// Two invariants keep appends, reads and peer queries off the whole log:
///
///  * Seq contiguity.  For every writer w the log holds exactly the seqs
///    1..evv().count_of(w): apply_remote's reorder buffer admits only a
///    writer's next seq, and since a writer's stamps never decrease,
///    rollback_to drops only per-writer suffixes.  So the EVV alone says
///    whether an update is held and how far a peer lags, and writer w's
///    missing updates are one range of its positions.
///  * Exact meta fold.  The meta value is a floating-point sum whose
///    (writer, seq) summation order defines its bits.  The store keeps,
///    per writer, the running sum after that writer's range of the walk.
///    Appending writer w's next update adds its delta to w's entry and
///    re-adds only the ranges of writers after w, so every addition
///    happens in the walk's exact order and the value is bit-identical to
///    a full walk for any deltas.  invalidate, rollback_to and
///    import_log's invalidation merges re-run the full O(n) walk.
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
#include <string>
#include <vector>

#include "replica/update.hpp"
#include "vv/extended_vv.hpp"

namespace idea::replica {

/// Observer of a store's content mutations (see
/// ReplicaStore::set_mutation_listener).  Listeners are borrowed, not
/// owned.
class MutationListener {
 public:
  /// Called once per mutating call, after its mutation_count() bump.
  virtual void on_store_mutation() = 0;

 protected:
  ~MutationListener() = default;
};

class ReplicaStore {
 public:
  ReplicaStore(NodeId node, FileId file);
  ReplicaStore(const ReplicaStore&) = delete;
  ReplicaStore& operator=(const ReplicaStore&) = delete;

  [[nodiscard]] NodeId node() const { return node_; }
  [[nodiscard]] FileId file() const { return file_; }

  /// Issue a local write stamped with the node's local clock.  Returns the
  /// stored update (with its assigned sequence number), valid until the
  /// store's next mutation.  Amortized O(1) at the tail (an O(n) shift if
  /// writer clocks skew) plus a re-add of the ranges of writers after
  /// this node.
  const Update& apply_local(SimTime local_now, std::string content,
                            double meta_delta);

  /// Learn a remote update.  Idempotent.  A writer's history must be applied
  /// in sequence order; updates arriving ahead of their predecessors (the
  /// network may reorder messages) are buffered and applied automatically
  /// once the gap fills, as one batch.  Returns true if the update is now
  /// applied.  Costs as apply_local, per applied update.
  bool apply_remote(const Update& u);

  /// Out-of-order updates currently parked awaiting predecessors.
  [[nodiscard]] std::size_t pending_remote() const {
    return pending_.size();
  }

  /// Whether the log holds `key`: by seq contiguity, seq <= the EVV's
  /// count for its writer.  O(log writers).
  [[nodiscard]] bool has(const UpdateKey& key) const {
    return key.seq > 0 && key.seq <= evv_.count_of(key.writer);
  }
  /// The held update, or nullptr; valid until the store's next mutation.
  /// O(log writers).
  [[nodiscard]] const Update* find(const UpdateKey& key) const;

  /// Updates this replica holds that `peer_counts` does not — the payload of
  /// a resolution/anti-entropy push — in (writer, seq) order.  The EVV says
  /// which writers the peer lags on; each one's missing updates are a
  /// range of its positions: O(writers + missing), so a peer that lacks
  /// nothing costs no log access.
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
    /// Arrived ahead of a predecessor and went to the reorder buffer
    /// (where apply_remote returns false).
    std::size_t parked = 0;
  };

  /// Ingest a state batch (typically another replica's export_log(), a
  /// migration stream or a repair).  Each update is taken as apply_remote
  /// would take it, so the import is idempotent, tolerates overlap with
  /// updates already held, and adjusts local_seq when the batch contains
  /// this node's own writer history (a migrated or restarted coordinator
  /// continues its predecessor's sequence); but the view is put back in
  /// canonical order once, after the whole batch.  Updates already held
  /// contribute at most their invalidation flag, which is OR'd in; a
  /// batch that merges any flag pays one O(n) meta walk.  Bumps
  /// mutation_count() once per update apply_remote would have applied.
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

  /// Updates in canonical display order (what a reader sees); one O(n)
  /// copy of the view.
  [[nodiscard]] std::vector<Update> ordered_contents() const {
    return *view_;
  }

  /// The read view itself, shared: O(1), no copy.  It never changes while
  /// held (the next mutation clones it instead), so a reader that keeps
  /// it across writes costs that writer one O(n) copy.
  [[nodiscard]] std::shared_ptr<const std::vector<Update>>
  contents_snapshot() const {
    return view_;
  }

  /// Order-sensitive digest of the canonical contents; equal digests mean
  /// replicas converged byte-for-byte.  Used heavily by convergence tests.
  /// O(n), read off the view.
  [[nodiscard]] std::uint64_t content_digest() const;

  /// Current critical meta-data value (sum of live meta_deltas).
  [[nodiscard]] double meta_value() const { return evv_.meta(); }

  [[nodiscard]] std::size_t update_count() const { return view_->size(); }
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
  /// One writer's share of the log, kept in writer order.
  struct WriterLog {
    NodeId writer = kNoNode;
    /// The running meta sum after this writer's range of the (writer,
    /// seq) walk; the last writer's is the meta value.
    double fold = 0.0;
    /// View positions of this writer's seqs 1..count (seq s at s - 1).
    std::vector<std::uint32_t> at;
  };

  /// The copy-on-write step every mutation goes through: the view,
  /// cloned first if a reader still holds it.
  std::vector<Update>& writable_view();
  /// Take a remote update as apply_remote would, without restoring the
  /// canonical order: park it if it is ahead of its writer's next seq,
  /// else append it and every parked successor it unblocks.  Returns
  /// whether it was applied.  `u` must not be held.
  bool arrive(const Update& u);
  /// Append an update to the view's tail and index it: its EVV stamp,
  /// its position, and its addition to its writer's fold entry (or its
  /// key in invalidated_).  The writers after it need refold_after().
  void append(Update u);
  /// Restore the canonical order after appends: sort the tail from
  /// `first_new` on, merge it into the prefix and re-index whatever
  /// moved.  Nothing moves when the tail already sorts last.
  void place_tail(std::size_t first_new);
  /// The view position of a held update.
  [[nodiscard]] std::uint32_t position(const UpdateKey& key) const;
  /// The writer's entry, added (starting where the walk leaves its
  /// predecessor) if new.
  WriterLog& writer_log(NodeId writer);
  /// Re-add the fold ranges of every writer after `writer` and publish
  /// the meta value.
  void refold_after(NodeId writer);
  /// The full (writer, seq) walk: rebuild the fold and invalidated_ from
  /// the log and publish the meta value.
  void rewalk_meta();
  /// Every content mutation ends here: add `mutations` to
  /// mutation_count, drop the EVV snapshot and tell the listener.
  void mutated(std::uint64_t mutations = 1);

  NodeId node_;
  FileId file_;
  std::uint64_t mutation_count_ = 0;
  MutationListener* listener_ = nullptr;
  /// Every logged update, in CanonicalOrder: the read view.
  std::shared_ptr<std::vector<Update>> view_;
  std::vector<WriterLog> writers_;       ///< By writer id.
  std::map<UpdateKey, Update> pending_;  ///< Reorder buffer.
  std::vector<UpdateKey> invalidated_;   ///< In (writer, seq) order.
  vv::ExtendedVersionVector evv_;
  mutable std::shared_ptr<const vv::ExtendedVersionVector> snapshot_;
};

}  // namespace idea::replica
