/// \file membership_test.cpp
/// \brief Elastic ring membership: endpoints join and leave a live
///        cluster, files migrate to their new replica groups, and no
///        update is lost in the process.
///
/// The load-bearing assertions:
///  * add_endpoint()/remove_endpoint() migrate *exactly* the files whose
///    replica group the ring says changed (HashRing::rebalance is the
///    oracle), and
///  * a run that joins and leaves mid-workload ends with byte-identical
///    per-file contents to a run that never churned — migration hands the
///    full log to the new coordinator, which continues the old writer
///    history seamlessly.

#include "shard/sharded_cluster.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "client/session.hpp"

namespace idea::shard {
namespace {

ShardedClusterConfig membership_config(std::uint64_t seed = 77) {
  ShardedClusterConfig cfg;
  cfg.endpoints = 6;
  cfg.replication = 3;
  cfg.seed = seed;
  cfg.sync_sizes();
  return cfg;
}

/// Deterministic workload: every file gets one write at each scheduled
/// instant, issued through a client session (so it lands on whatever
/// endpoint coordinates the file at that moment).
void schedule_writes(ShardedCluster& cluster, client::ClientSession& session,
                     FileId first, FileId count,
                     const std::vector<SimTime>& instants) {
  for (SimTime t : instants) {
    cluster.sim().schedule_at(t, [&session, first, count, t] {
      for (FileId f = first; f < first + count; ++f) {
        session.put(f, "w@" + std::to_string(t) + "#" + std::to_string(f),
                    static_cast<double>(f % 5));
      }
    });
  }
}

std::map<FileId, std::uint64_t> coordinator_digests(ShardedCluster& cluster,
                                                    FileId first,
                                                    FileId count) {
  std::map<FileId, std::uint64_t> out;
  for (FileId f = first; f < first + count; ++f) {
    core::IdeaNode* coord = cluster.replica_at_rank(f, 0);
    out[f] = coord == nullptr ? 0 : coord->store().content_digest();
  }
  return out;
}

TEST(MembershipTest, JoinMigratesExactlyWhatRebalancePredicts) {
  constexpr FileId kFiles = 80;
  ShardedCluster cluster(membership_config());
  cluster.place(1, kFiles);
  client::Client client(cluster);
  client::ClientSession session = client.session();
  for (FileId f = 1; f <= kFiles; ++f) {
    ASSERT_TRUE(session.put(f, "seed-" + std::to_string(f), 1.0).ok());
  }
  cluster.run_for(sec(3));

  const MembershipChange change = cluster.add_endpoint();
  EXPECT_EQ(change.endpoint, 6u);
  EXPECT_TRUE(cluster.has_endpoint(6));
  EXPECT_EQ(cluster.endpoints().size(), 7u);

  // The contract the tentpole hinges on: we migrated exactly the groups
  // the ring delta predicts — no more, no fewer.
  EXPECT_EQ(change.rebalance.keys, kFiles);
  EXPECT_GT(change.rebalance.group_changed, 0u);
  EXPECT_EQ(change.files_migrated, change.rebalance.group_changed);
  // A join of 1-in-7 endpoints must not reshuffle most of the keyspace.
  EXPECT_LT(change.rebalance.group_changed_fraction(), 0.75);
  EXPECT_GT(change.stream_messages, 0u);

  // Placements now match the post-join ring, and every migrated file's
  // new coordinator already holds the full pre-join history.
  for (FileId f = 1; f <= kFiles; ++f) {
    ASSERT_TRUE(cluster.is_placed(f));
    EXPECT_EQ(cluster.group_of(f), cluster.ring().replicas(f, 3));
    core::IdeaNode* coord = cluster.replica_at_rank(f, 0);
    ASSERT_NE(coord, nullptr);
    EXPECT_GE(coord->store().update_count(), 1u) << "file " << f;
  }

  // Once the in-flight migration streams deliver, the whole group holds
  // identical contents again.
  cluster.run_for(sec(5));
  for (FileId f = 1; f <= kFiles; ++f) {
    EXPECT_TRUE(cluster.converged(f)) << "file " << f;
  }
}

TEST(MembershipTest, LeaveMigratesFilesOffTheEndpoint) {
  constexpr FileId kFiles = 60;
  ShardedCluster cluster(membership_config(123));
  cluster.place(1, kFiles);
  client::Client client(cluster);
  client::ClientSession session = client.session();
  for (FileId f = 1; f <= kFiles; ++f) {
    ASSERT_TRUE(session.put(f, "pre-" + std::to_string(f), 0.5).ok());
  }
  cluster.run_for(sec(3));

  const NodeId leaver = 2;
  const MembershipChange change = cluster.remove_endpoint(leaver);
  EXPECT_EQ(change.endpoint, leaver);
  EXPECT_FALSE(cluster.has_endpoint(leaver));
  EXPECT_EQ(cluster.endpoints().size(), 5u);
  EXPECT_EQ(change.files_migrated, change.rebalance.group_changed);

  for (FileId f = 1; f <= kFiles; ++f) {
    ASSERT_TRUE(cluster.is_placed(f));
    const std::vector<NodeId> group = cluster.group_of(f);
    for (NodeId member : group) EXPECT_NE(member, leaver);
    core::IdeaNode* coord = cluster.replica_at_rank(f, 0);
    ASSERT_NE(coord, nullptr);
    EXPECT_GE(coord->store().update_count(), 1u) << "file " << f;
  }

  cluster.run_for(sec(5));
  for (FileId f = 1; f <= kFiles; ++f) {
    EXPECT_TRUE(cluster.converged(f)) << "file " << f;
  }

  // Removing the same endpoint again is a no-op.
  const MembershipChange again = cluster.remove_endpoint(leaver);
  EXPECT_EQ(again.endpoint, kNoNode);
  EXPECT_EQ(again.files_migrated, 0u);
}

TEST(MembershipTest, ChurnedRunMatchesNeverChurnedDigests) {
  // The acceptance criterion: one join and one leave in the middle of a
  // live workload; afterwards, every file's contents are byte-identical
  // to a run that never churned.  Content digests cover writer ids (rank
  // space), sequence numbers, stamps and payload bytes, so this catches a
  // lost update, a broken coordinator hand-off (sequence fork), or a
  // migration applying updates twice.
  constexpr FileId kFiles = 48;
  std::vector<SimTime> instants;
  for (SimTime t = msec(500); t <= sec(10); t += msec(500)) {
    instants.push_back(t);
  }

  ShardedCluster churned(membership_config(9));
  churned.place(1, kFiles);
  client::Client churned_client(churned);
  client::ClientSession churned_session = churned_client.session();
  schedule_writes(churned, churned_session, 1, kFiles, instants);
  churned.run_until(sec(3) + msec(200));
  const MembershipChange joined = churned.add_endpoint();
  EXPECT_EQ(joined.files_migrated, joined.rebalance.group_changed);
  churned.run_until(sec(6) + msec(100));
  const MembershipChange left = churned.remove_endpoint(1);
  EXPECT_EQ(left.files_migrated, left.rebalance.group_changed);
  churned.run_until(sec(20));

  ShardedCluster control(membership_config(9));
  control.place(1, kFiles);
  client::Client control_client(control);
  client::ClientSession control_session = control_client.session();
  schedule_writes(control, control_session, 1, kFiles, instants);
  control.run_until(sec(20));

  const auto churned_digests = coordinator_digests(churned, 1, kFiles);
  const auto control_digests = coordinator_digests(control, 1, kFiles);
  EXPECT_EQ(churned_digests, control_digests);

  // And the churned run's groups are internally consistent: migration
  // streams + replication pushes warmed every replica of the new epochs.
  for (FileId f = 1; f <= kFiles; ++f) {
    EXPECT_TRUE(churned.converged(f)) << "file " << f;
  }
  // Every write was accepted in both runs (no resolution blocking, no
  // coordinator sequence fork after the hand-off).
  EXPECT_EQ(churned.router().stats().writes,
            instants.size() * static_cast<std::uint64_t>(kFiles));
  EXPECT_EQ(churned.router().stats().writes, control.router().stats().writes);
}

TEST(MembershipTest, RemovedEndpointIdsAreReusedWithBumpedIncarnations) {
  // A long-lived cluster churns endlessly; ids must not leak.  Removed
  // ids go on a free-list and the next join reuses the smallest one
  // under a bumped incarnation, so the id space stays dense.
  constexpr FileId kFiles = 30;
  ShardedCluster cluster(membership_config(42));
  cluster.place(1, kFiles);
  client::Client client(cluster);
  client::ClientSession session = client.session();
  for (FileId f = 1; f <= kFiles; ++f) {
    ASSERT_TRUE(session.put(f, "seed-" + std::to_string(f), 1.0).ok());
  }
  cluster.run_for(sec(2));

  const std::uint32_t size_before = cluster.size();
  const MembershipChange left = cluster.remove_endpoint(2);
  EXPECT_EQ(left.endpoint, 2u);
  EXPECT_EQ(cluster.free_ids().count(2), 1u);
  cluster.run_for(sec(2));

  // The join reuses id 2 instead of growing the id space.
  const MembershipChange rejoined = cluster.add_endpoint();
  EXPECT_EQ(rejoined.endpoint, 2u);
  EXPECT_EQ(rejoined.incarnation, 1u);
  EXPECT_EQ(cluster.incarnation(2), 1u);
  EXPECT_EQ(cluster.size(), size_before) << "id space grew despite reuse";
  EXPECT_TRUE(cluster.has_endpoint(2));
  EXPECT_TRUE(cluster.free_ids().empty());
  EXPECT_EQ(cluster.ring().incarnation_of(2), 1u);

  // The reused endpoint takes traffic like any other: placements match
  // the ring, writes keep flowing, groups converge — and any in-flight
  // traffic from incarnation 0 was fenced by the group-epoch rebuild.
  cluster.run_for(sec(3));
  for (FileId f = 1; f <= kFiles; ++f) {
    ASSERT_TRUE(cluster.is_placed(f));
    EXPECT_EQ(cluster.group_of(f), cluster.ring().replicas(f, 3));
    ASSERT_TRUE(session.put(f, "post-" + std::to_string(f), 0.5).ok());
  }
  cluster.run_for(sec(5));
  for (FileId f = 1; f <= kFiles; ++f) {
    EXPECT_TRUE(cluster.converged(f)) << "file " << f;
  }

  // Churn cycles never grow the id space: remove/add pairs stay dense.
  for (int cycle = 0; cycle < 3; ++cycle) {
    const NodeId victim = static_cast<NodeId>(cycle % 3);
    const MembershipChange out = cluster.remove_endpoint(victim);
    ASSERT_EQ(out.endpoint, victim);
    cluster.run_for(sec(1));
    const MembershipChange in = cluster.add_endpoint();
    EXPECT_EQ(in.endpoint, victim);
    EXPECT_EQ(in.incarnation, cluster.incarnation(victim));
    EXPECT_GT(in.incarnation, 0u);
    cluster.run_for(sec(1));
  }
  EXPECT_EQ(cluster.size(), size_before);
  cluster.run_for(sec(5));
  for (FileId f = 1; f <= kFiles; ++f) {
    EXPECT_TRUE(cluster.converged(f)) << "file " << f << " after churn";
  }
}

TEST(MembershipTest, GroupsShrinkWhenRingFallsBelowReplication) {
  ShardedClusterConfig cfg = membership_config(31);
  cfg.endpoints = 3;
  cfg.sync_sizes();
  ShardedCluster cluster(cfg);
  cluster.place(1, 10);
  client::Client client(cluster);
  client::ClientSession session = client.session();
  for (FileId f = 1; f <= 10; ++f) {
    ASSERT_TRUE(session.put(f, "x", 1.0).ok());
  }
  cluster.run_for(sec(2));

  const MembershipChange change = cluster.remove_endpoint(0);
  // Every group contained all three endpoints, so every file migrates to
  // the surviving pair.
  EXPECT_EQ(change.files_migrated, 10u);
  for (FileId f = 1; f <= 10; ++f) {
    EXPECT_EQ(cluster.group_of(f).size(), 2u);
    core::IdeaNode* coord = cluster.replica_at_rank(f, 0);
    ASSERT_NE(coord, nullptr);
    EXPECT_GE(coord->store().update_count(), 1u);
  }
  cluster.run_for(sec(5));
  for (FileId f = 1; f <= 10; ++f) {
    EXPECT_TRUE(cluster.converged(f)) << "file " << f;
  }

  // Writes keep flowing at replication factor 2.
  for (FileId f = 1; f <= 10; ++f) {
    ASSERT_TRUE(session.put(f, "post", 1.0).ok());
  }
  cluster.run_for(sec(2));
  for (FileId f = 1; f <= 10; ++f) {
    EXPECT_TRUE(cluster.converged(f)) << "file " << f;
  }
}

}  // namespace
}  // namespace idea::shard
