#include "shard/hash_ring.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

namespace idea::shard {
namespace {

std::vector<FileId> keyset(std::size_t n) {
  std::vector<FileId> keys(n);
  for (std::size_t i = 0; i < n; ++i) keys[i] = static_cast<FileId>(i + 1);
  return keys;
}

HashRing ring_of(std::uint32_t nodes) {
  HashRing ring;
  for (NodeId n = 0; n < nodes; ++n) ring.add_node(n);
  return ring;
}

/// A fold of every key's primary and replicas(f, 3) over files 1..10,000.
std::uint64_t placement_digest(const HashRing& ring) {
  std::uint64_t digest = 0;
  for (FileId f : keyset(10000)) {
    digest = mix64(digest ^ f) ^ ring.primary(f);
    for (NodeId n : ring.replicas(f, 3)) digest = mix64(digest ^ n);
  }
  return digest;
}

TEST(HashRingTest, EmptyRing) {
  HashRing ring;
  EXPECT_EQ(ring.primary(7), kNoNode);
  EXPECT_TRUE(ring.replicas(7, 3).empty());
  EXPECT_EQ(ring.node_count(), 0u);
}

TEST(HashRingTest, Deterministic) {
  const HashRing a = ring_of(16);
  const HashRing b = ring_of(16);
  for (FileId f : keyset(500)) {
    EXPECT_EQ(a.primary(f), b.primary(f));
    EXPECT_EQ(a.replicas(f, 3), b.replicas(f, 3));
  }
}

TEST(HashRingTest, PlacementGolden) {
  // Pinned from the std::map ring the sorted vector replaced: storage
  // must never move a key.  Endpoint 7 leaves, then its id comes back
  // under incarnation 1, as ShardedCluster reuses a freed id.  Both the
  // add_node() loop and the one-sort build must reproduce it.
  struct Golden {
    std::uint32_t endpoints;
    std::uint64_t initial, after_leave, after_rejoin;
  };
  for (const Golden& g : {Golden{32, 0x0aeed072e1df2913, 0x153620c8225d6911,
                                 0x472a0876944b9d41},
                          Golden{125, 0x6378790501d682f3, 0xede900d52f483d25,
                                 0x6d33f69ae6bed2c0}}) {
    for (const bool bulk : {false, true}) {
      SCOPED_TRACE(testing::Message() << g.endpoints << " endpoints, "
                                      << (bulk ? "bulk" : "looped"));
      HashRing ring = bulk ? HashRing(g.endpoints) : ring_of(g.endpoints);
      EXPECT_EQ(ring.point_count(), g.endpoints * 96u);
      EXPECT_EQ(placement_digest(ring), g.initial);
      ASSERT_TRUE(ring.remove_node(7));
      EXPECT_EQ(ring.point_count(), (g.endpoints - 1) * 96u);
      EXPECT_EQ(placement_digest(ring), g.after_leave);
      ring.add_node(7, 1);
      EXPECT_EQ(ring.point_count(), g.endpoints * 96u);
      EXPECT_EQ(placement_digest(ring), g.after_rejoin);
    }
  }
}

TEST(HashRingTest, BulkBuildEqualsAnAddNodeLoop) {
  for (const std::uint32_t endpoints : {1u, 2u, 32u, 125u}) {
    SCOPED_TRACE(endpoints);
    const HashRing bulk(endpoints);
    const HashRing looped = ring_of(endpoints);
    EXPECT_EQ(bulk.node_count(), looped.node_count());
    EXPECT_EQ(bulk.point_count(), looped.point_count());
    for (FileId f : keyset(10000)) {
      ASSERT_EQ(bulk.primary(f), looped.primary(f)) << "file " << f;
      ASSERT_EQ(bulk.replicas(f, 3), looped.replicas(f, 3)) << "file " << f;
    }
  }
  EXPECT_EQ(HashRing(0).point_count(), 0u);
  EXPECT_EQ(HashRing(0).primary(1), kNoNode);
}

TEST(HashRingTest, AddNodeIsIdempotent) {
  HashRing ring = ring_of(8);
  const std::size_t points = ring.point_count();
  ring.add_node(3);
  EXPECT_EQ(ring.point_count(), points);
  EXPECT_EQ(ring.node_count(), 8u);
}

TEST(HashRingTest, ReplicasAreDistinctAndPrimaryFirst) {
  const HashRing ring = ring_of(10);
  for (FileId f : keyset(300)) {
    const std::vector<NodeId> group = ring.replicas(f, 3);
    ASSERT_EQ(group.size(), 3u);
    EXPECT_EQ(group.front(), ring.primary(f));
    const std::set<NodeId> distinct(group.begin(), group.end());
    EXPECT_EQ(distinct.size(), group.size());
  }
}

TEST(HashRingTest, ReplicasClampToNodeCount) {
  const HashRing ring = ring_of(2);
  EXPECT_EQ(ring.replicas(1, 5).size(), 2u);
}

TEST(HashRingTest, DistributionUniformity) {
  const HashRing ring = ring_of(32);
  const auto load = ring.primary_load(keyset(20000));
  ASSERT_EQ(load.size(), 32u);
  const double mean = 20000.0 / 32.0;
  std::size_t max_load = 0, min_load = SIZE_MAX;
  for (const auto& [node, count] : load) {
    max_load = std::max(max_load, count);
    min_load = std::min(min_load, count);
  }
  // With 96 vnodes/endpoint the arc lengths concentrate well; allow ±50%.
  EXPECT_LT(static_cast<double>(max_load), 1.5 * mean)
      << "hottest endpoint owns too much of the keyspace";
  EXPECT_GT(static_cast<double>(min_load), 0.5 * mean)
      << "coldest endpoint owns too little of the keyspace";
}

TEST(HashRingTest, NodeLeaveRemapsOnlyItsKeys) {
  constexpr std::uint32_t kNodes = 10;
  constexpr NodeId kLeaver = 4;
  const std::vector<FileId> keys = keyset(10000);
  const HashRing before = ring_of(kNodes);
  HashRing after = ring_of(kNodes);
  ASSERT_TRUE(after.remove_node(kLeaver));

  // Minimal remapping, key by key: a primary may change only if it WAS the
  // leaver, and then it must move to the next distinct successor.
  std::size_t moved = 0;
  for (FileId f : keys) {
    const NodeId old_primary = before.primary(f);
    const NodeId new_primary = after.primary(f);
    if (old_primary != kLeaver) {
      EXPECT_EQ(new_primary, old_primary)
          << "key " << f << " moved although its owner stayed";
    } else {
      ++moved;
      EXPECT_EQ(new_primary, before.replicas(f, 2).back())
          << "key " << f << " did not move to its successor";
    }
  }
  // The acceptance bound: one of N nodes leaving remaps <= 2/N + eps.
  const double fraction =
      static_cast<double>(moved) / static_cast<double>(keys.size());
  EXPECT_LE(fraction, 2.0 / kNodes + 0.02);
  EXPECT_GT(moved, 0u);

  const RebalanceStats stats =
      HashRing::rebalance(before, after, keys, /*k=*/1);
  EXPECT_EQ(stats.moved, moved);
  EXPECT_EQ(stats.keys, keys.size());
  EXPECT_LE(stats.moved_fraction(), 2.0 / kNodes + 0.02);
}

TEST(HashRingTest, NodeJoinOnlyStealsForItself) {
  constexpr std::uint32_t kNodes = 9;
  const std::vector<FileId> keys = keyset(10000);
  const HashRing before = ring_of(kNodes);
  HashRing after = ring_of(kNodes);
  after.add_node(kNodes);  // the joiner

  std::size_t moved = 0;
  for (FileId f : keys) {
    const NodeId old_primary = before.primary(f);
    const NodeId new_primary = after.primary(f);
    if (new_primary != old_primary) {
      ++moved;
      EXPECT_EQ(new_primary, kNodes)
          << "key " << f << " moved to an old node on join";
    }
  }
  // The joiner takes ~1/(N+1) of the keyspace and nothing else shuffles.
  const double fraction =
      static_cast<double>(moved) / static_cast<double>(keys.size());
  EXPECT_LE(fraction, 2.0 / (kNodes + 1) + 0.02);
  EXPECT_GT(moved, 0u);
}

TEST(HashRingTest, GroupRebalanceBoundedOnLeave) {
  constexpr std::uint32_t kNodes = 16;
  constexpr std::uint32_t kReplication = 3;
  const std::vector<FileId> keys = keyset(8000);
  const HashRing before = ring_of(kNodes);
  HashRing after = ring_of(kNodes);
  after.remove_node(7);

  const RebalanceStats stats =
      HashRing::rebalance(before, after, keys, kReplication);
  // A group changes iff the leaver was one of its k members: ~k/N of keys.
  EXPECT_LE(stats.group_changed_fraction(),
            2.0 * kReplication / kNodes + 0.03);
  EXPECT_GT(stats.group_changed, 0u);
  // Survivor pairs stay put: every changed group differs only by the
  // leaver's slot cascading, never by an unrelated reshuffle.
  for (FileId f : keys) {
    const std::vector<NodeId> old_group = before.replicas(f, kReplication);
    if (std::find(old_group.begin(), old_group.end(), NodeId{7}) ==
        old_group.end()) {
      EXPECT_EQ(after.replicas(f, kReplication), old_group);
    }
  }
}

TEST(HashRingTest, IncarnationsGiveReusedIdsFreshPlacement) {
  // Incarnation 0 must hash exactly as before incarnations existed, so a
  // ring that never reuses ids is byte-identical to the old behavior.
  HashRing plain = ring_of(8);
  HashRing inc0;
  for (NodeId n = 0; n < 8; ++n) inc0.add_node(n, 0);
  const std::vector<FileId> keys = keyset(4000);
  for (FileId f : keys) {
    ASSERT_EQ(plain.replicas(f, 3), inc0.replicas(f, 3));
  }
  EXPECT_EQ(plain.incarnation_of(3), 0u);

  // A reused id under a bumped incarnation owns different vnode points,
  // so a dead incarnation's placement decisions can never alias the new
  // life's.
  HashRing reused = ring_of(8);
  reused.remove_node(3);
  reused.add_node(3, 1);
  EXPECT_EQ(reused.incarnation_of(3), 1u);
  EXPECT_EQ(reused.node_count(), 8u);
  std::size_t diverged = 0;
  for (FileId f : keys) {
    if (reused.replicas(f, 3) != plain.replicas(f, 3)) ++diverged;
  }
  EXPECT_GT(diverged, 0u) << "incarnation salt had no effect on placement";
  // ...but only groups that touch the reincarnated id can differ.
  for (FileId f : keys) {
    const std::vector<NodeId> old_group = plain.replicas(f, 3);
    const std::vector<NodeId> new_group = reused.replicas(f, 3);
    if (old_group != new_group) {
      const bool involves3 =
          std::find(old_group.begin(), old_group.end(), NodeId{3}) !=
              old_group.end() ||
          std::find(new_group.begin(), new_group.end(), NodeId{3}) !=
              new_group.end();
      EXPECT_TRUE(involves3) << "unrelated group reshuffled for file " << f;
    }
  }
  // Removing the node again drops its incarnation record.
  reused.remove_node(3);
  EXPECT_EQ(reused.incarnation_of(3), 0u);
}

}  // namespace
}  // namespace idea::shard
