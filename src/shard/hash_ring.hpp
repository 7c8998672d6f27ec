#pragma once
/// \file hash_ring.hpp
/// \brief Consistent-hash placement ring: FileId -> home replica group.
///
/// The multi-tenant cluster layer spreads files across service endpoints
/// the standard way: every endpoint owns 96 pseudo-random points
/// (virtual nodes) on a 64-bit ring, a file hashes to a ring position, and its
/// replica group is the next k *distinct* endpoints clockwise.  Virtual
/// nodes smooth the per-endpoint load; consistent hashing guarantees that
/// an endpoint joining or leaving only remaps the keys it gains or loses
/// (~1/N of the keyspace), never reshuffling the rest — the property the
/// rebalance() helper quantifies and tests/shard/hash_ring_test.cpp pins.
///
/// The ring is one vector of (point, owner) pairs sorted by point, and a
/// lookup is a binary search plus a clockwise walk.  A deployment builds
/// its initial ring with one append and one sort; a join appends its
/// points and merges them in.  Two points colliding across 64 bits is
/// vanishingly rare, but when it happens the first-added owner keeps the
/// point, so adding or removing another node never silently reassigns it.

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "util/ids.hpp"

namespace idea::shard {

/// What a membership change did to a keyset's placement.
struct RebalanceStats {
  std::size_t keys = 0;           ///< Keys examined.
  std::size_t moved = 0;          ///< Keys whose primary endpoint changed.
  std::size_t group_changed = 0;  ///< Keys whose replica group changed.

  [[nodiscard]] double moved_fraction() const {
    return keys == 0 ? 0.0 : static_cast<double>(moved) /
                                 static_cast<double>(keys);
  }
  [[nodiscard]] double group_changed_fraction() const {
    return keys == 0 ? 0.0 : static_cast<double>(group_changed) /
                                 static_cast<double>(keys);
  }
};

class HashRing {
 public:
  HashRing() = default;
  /// Endpoints 0..endpoints-1 at incarnation 0, placed as add_node() in
  /// ascending id would place them.
  explicit HashRing(std::uint32_t endpoints);

  /// Add an endpoint's virtual nodes to the ring.  Idempotent (a present
  /// node is left unchanged, whatever incarnation it joined with).
  ///
  /// `incarnation` distinguishes successive lives of a *reused* endpoint
  /// id: a long-lived cluster recycles the ids of removed endpoints
  /// (ShardedCluster keeps the free-list), and each re-add bumps the
  /// incarnation so the new life gets its own vnode positions — placement
  /// decisions can never alias a dead incarnation's.  Incarnation 0
  /// hashes exactly as the pre-incarnation ring did, keeping fixed-seed
  /// placements of never-reusing deployments byte-identical.
  void add_node(NodeId node, std::uint32_t incarnation = 0);

  /// Remove an endpoint.  Returns false if it was not on the ring.
  bool remove_node(NodeId node);

  [[nodiscard]] bool contains(NodeId node) const {
    return nodes_.count(node) > 0;
  }

  /// The incarnation `node` currently lives on the ring with (0 if absent
  /// or never re-added).
  [[nodiscard]] std::uint32_t incarnation_of(NodeId node) const {
    auto it = incarnations_.find(node);
    return it == incarnations_.end() ? 0 : it->second;
  }
  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const std::set<NodeId>& nodes() const { return nodes_; }

  /// The endpoint owning `file`'s ring position (kNoNode on an empty ring).
  [[nodiscard]] NodeId primary(FileId file) const;

  /// The first min(k, node_count) distinct endpoints clockwise from the
  /// file's position — its replica group, primary first.  The order is
  /// deterministic, so every caller derives the same group (and the same
  /// rank assignment within it).
  [[nodiscard]] std::vector<NodeId> replicas(FileId file,
                                             std::uint32_t k) const;

  /// Compare key placement between two ring states (typically before and
  /// after a membership change) over an explicit keyset.
  static RebalanceStats rebalance(const HashRing& before,
                                  const HashRing& after,
                                  const std::vector<FileId>& keys,
                                  std::uint32_t k);

  /// Per-endpoint primary-key counts over a keyset (load-balance probe).
  [[nodiscard]] std::map<NodeId, std::size_t> primary_load(
      const std::vector<FileId>& keys) const;

  [[nodiscard]] std::size_t point_count() const { return ring_.size(); }

 private:
  struct Point {
    std::uint64_t at = 0;
    NodeId owner = kNoNode;
  };

  /// Register `node` and append its points unplaced.  False if present.
  bool append_node(NodeId node, std::uint32_t incarnation);
  /// Restore the order after appends: sort the points from `first_new`
  /// on, merge them into the sorted prefix, and drop every later point
  /// that collides with an earlier one.
  void place_points(std::size_t first_new);

  std::vector<Point> ring_;  ///< Sorted by `at`, one owner per point.
  std::set<NodeId> nodes_;
  /// Nonzero incarnations of present nodes (reused ids only).
  std::map<NodeId, std::uint32_t> incarnations_;
};

}  // namespace idea::shard
