#pragma once
/// \file extended_vv.hpp
/// \brief IDEA's extended version vector (§4.4, Figure 5).
///
/// The extension over a classic version vector carries, per writer, the
/// timestamp of every update (so staleness can be computed), plus one
/// critical application meta-data value (e.g. sum of ASCII codes of recent
/// white-board strokes, or total sale price of a booking server), plus the
/// derived <numerical error, order error, staleness> triple.
///
/// Update identity is (writer, sequence); a writer's own history is linear,
/// so the timestamp of update (w, k) is identical at every replica that
/// knows it.  That invariant is what makes the "last consistent time point"
/// well defined and computable from the stamp lists alone.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/ids.hpp"
#include "util/time.hpp"
#include "vv/tact_triple.hpp"
#include "vv/version_vector.hpp"

namespace idea::vv {

class ExtendedVersionVector {
 public:
  /// One writer's history: its update stamps in sequence order.  The
  /// per-writer lists live in a flat vector sorted by writer id — EVVs are
  /// copied into every detect/resolve message, so the spine is one
  /// contiguous allocation and all cross-EVV walks are linear merges.
  using WriterStamps = std::pair<NodeId, std::vector<SimTime>>;

  ExtendedVersionVector() = default;

  /// Record a local or learned update: writer `w`'s next update, stamped
  /// `when` (writer-local clock), leaving the application meta-data at
  /// `meta_after`.  Stamps of one writer must be non-decreasing.
  void record_update(NodeId writer, SimTime when, double meta_after);

  /// Number of updates known from `writer`.
  [[nodiscard]] std::uint64_t count_of(NodeId writer) const;

  /// Timestamp of update (writer, seq), seq being 1-based. kNever if unknown.
  [[nodiscard]] SimTime stamp_of(NodeId writer, std::uint64_t seq) const;

  /// Plain version-vector view (counts only) for ordering decisions.
  [[nodiscard]] VersionVector counts() const;

  /// Compare the histories under the version-vector partial order.  One
  /// linear walk of the two writer spines; allocates nothing.
  [[nodiscard]] static Order compare(const ExtendedVersionVector& a,
                                     const ExtendedVersionVector& b);

  /// True iff every writer's count in `other` is <= its count here, i.e.
  /// compare(*this, other) is kAfter or kEqual.  Allocates nothing.
  [[nodiscard]] bool dominates(const ExtendedVersionVector& other) const;

  /// Timestamp of the most recent update known here (0 if none).
  [[nodiscard]] SimTime latest_update_time() const;

  /// Largest time point T such that this replica and `reference` knew
  /// exactly the same set of updates with stamps <= T.  0 if they diverge
  /// from the very first update.
  [[nodiscard]] SimTime last_consistent_time(
      const ExtendedVersionVector& reference) const;

  /// Compute the TACT triple of this replica against a reference state
  /// (§4.4.1): numerical = meta gap, order = missing + extra updates,
  /// staleness = reference's latest update minus last consistent point.
  [[nodiscard]] TactTriple triple_against(
      const ExtendedVersionVector& reference) const;

  /// Union of the two histories; per-writer lists must be prefix-compatible
  /// (same (writer, seq) => same stamp).  Meta-data is taken from whichever
  /// side has the later latest update; the replica layer recomputes the
  /// authoritative value after applying actual update contents.
  void merge(const ExtendedVersionVector& other);

  /// Updates present in `other` but not here, as (writer, seq) pairs —
  /// exactly what a resolution round must fetch.
  [[nodiscard]] std::vector<std::pair<NodeId, std::uint64_t>> missing_from(
      const ExtendedVersionVector& other) const;

  /// Current application meta-data value (the "[5]" column in Figure 5).
  [[nodiscard]] double meta() const { return meta_; }
  void set_meta(double m) { meta_ = m; }

  /// The attached triple (errors vs the chosen reference; zero when the
  /// replica believes it is consistent — Figure 4(b)).
  [[nodiscard]] const TactTriple& triple() const { return triple_; }
  void set_triple(const TactTriple& t) { triple_ = t; }

  /// Estimated serialized size, for message accounting.
  [[nodiscard]] std::uint32_t wire_bytes() const;

  /// Sum of all writers' counts (= counts().total(), without the vector).
  [[nodiscard]] std::uint64_t total_updates() const;
  [[nodiscard]] bool empty() const { return stamps_.empty(); }
  [[nodiscard]] std::size_t writer_count() const { return stamps_.size(); }

  /// Every writer's stamp list, sorted by writer id.
  [[nodiscard]] const std::vector<WriterStamps>& writers() const {
    return stamps_;
  }

  /// "<A:2(1,2) B:1(1) [5.0] <num=..>>" rendering per Figure 5.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const ExtendedVersionVector&,
                         const ExtendedVersionVector&) = default;

 private:
  /// Position of `writer`'s entry, or the insertion point keeping stamps_
  /// sorted.
  [[nodiscard]] std::size_t lower_bound(NodeId writer) const;
  [[nodiscard]] const std::vector<SimTime>* stamps_of(NodeId writer) const;
  /// Walk the union of both writer-sorted spines in writer order, calling
  /// visit(mine, theirs) with nullptr for a writer one side lacks.
  template <typename Visit>
  static void merge_walk(const ExtendedVersionVector& a,
                         const ExtendedVersionVector& b, Visit&& visit);

  std::vector<WriterStamps> stamps_;  ///< Sorted by writer id.
  double meta_ = 0.0;
  TactTriple triple_{};
};

}  // namespace idea::vv
