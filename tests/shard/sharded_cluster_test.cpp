#include "shard/sharded_cluster.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "client/session.hpp"

namespace idea::shard {
namespace {

ShardedClusterConfig small_cluster_config(std::uint64_t seed = 4207) {
  ShardedClusterConfig cfg;
  cfg.endpoints = 8;
  cfg.replication = 3;
  cfg.seed = seed;
  cfg.sync_sizes();
  return cfg;
}

TEST(ShardedClusterTest, PlacementMatchesRing) {
  ShardedCluster cluster(small_cluster_config());
  cluster.place(1, 40);
  EXPECT_EQ(cluster.placed_files(), 40u);

  std::size_t open_total = 0;
  for (FileId f = 1; f <= 40; ++f) {
    for (NodeId e = 0; e < cluster.size(); ++e) {
      if (cluster.replica(f, e) != nullptr) ++open_total;
    }
  }
  EXPECT_EQ(open_total, 40u * 3u);

  for (FileId f = 1; f <= 40; ++f) {
    const std::vector<NodeId> group = cluster.ring().replicas(f, 3);
    ASSERT_EQ(group.size(), 3u);
    EXPECT_EQ(group, cluster.group_of(f));
    for (NodeId member : group) {
      core::IdeaNode* node = cluster.replica(f, member);
      ASSERT_NE(node, nullptr);
      EXPECT_EQ(node->file(), f);
    }
    for (NodeId e = 0; e < cluster.size(); ++e) {
      if (std::find(group.begin(), group.end(), e) == group.end()) {
        EXPECT_EQ(cluster.replica(f, e), nullptr);
      }
    }
  }
}

TEST(ShardedClusterTest, WriteReplicatesAcrossGroup) {
  ShardedCluster cluster(small_cluster_config());
  const FileId file = 7;
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(file, "alpha", 1.0).ok());
  cluster.run_for(sec(2));  // one replication hop

  for (std::uint32_t rank = 0; rank < 3; ++rank) {
    core::IdeaNode* node = cluster.replica_at_rank(file, rank);
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->store().update_count(), 1u)
        << "rank " << rank << " missed the replicated update";
  }
  EXPECT_TRUE(cluster.converged(file));
  EXPECT_EQ(cluster.sync_agent(file, 0)->stats().pushed, 2u);
}

TEST(ShardedClusterTest, ConflictingWritesConvergeThroughPushes) {
  ShardedCluster cluster(small_cluster_config());
  const FileId file = 11;
  cluster.ensure_open(file);
  cluster.sync_agent(file, 0)->put("warm", 0.0);
  cluster.run_for(sec(12));

  // Conflicting writes from two different group members, with a large
  // numerical gap: each rank pushes its own write to the whole group, so
  // every replica ends with both, with no detection or resolution.
  cluster.sync_agent(file, 0)->put("a", 1.0);
  cluster.sync_agent(file, 1)->put("b", 9.0);
  cluster.run_for(sec(40));

  EXPECT_TRUE(cluster.converged(file))
      << "replica digests still differ after the pushes";
  for (std::uint32_t rank = 0; rank < 3; ++rank) {
    EXPECT_GE(cluster.replica_at_rank(file, rank)->store().update_count(),
              3u);
  }
}

TEST(ShardedClusterTest, RouterSpreadsCoordinators) {
  ShardedCluster cluster(small_cluster_config());
  client::ClientSession session(cluster, {});
  for (FileId f = 1; f <= 64; ++f) {
    ASSERT_TRUE(session.put(f, "x", 0.5).ok());
  }
  cluster.run_for(sec(1));

  const RouterStats& stats = cluster.router().stats();
  EXPECT_EQ(stats.writes, 64u);
  EXPECT_EQ(stats.opens, 64u);
  // The ring should never funnel 64 tenants through one coordinator.
  EXPECT_GT(stats.coordinator_ops.size(), 3u);
  for (const auto& [endpoint, ops] : stats.coordinator_ops) {
    EXPECT_LT(ops, 64u / 2) << "endpoint " << endpoint
                            << " coordinates too many tenants";
  }
}

TEST(ShardedClusterTest, BatchingCoalescesSameTickFanout) {
  ShardedCluster cluster(small_cluster_config());
  cluster.place(1, 40);
  // All coordinators push replicas at the same instant; co-located tenants
  // share endpoint pairs, so the fan-out coalesces into fewer envelopes.
  client::ClientSession session(cluster, {});
  for (FileId f = 1; f <= 40; ++f) {
    ASSERT_TRUE(session.put(f, "burst", 0.5).ok());
  }
  cluster.run_for(sec(20));

  ASSERT_NE(cluster.batching(), nullptr);
  const net::BatchingStats& stats = cluster.batching()->stats();
  EXPECT_GT(stats.logical_messages, 0u);
  EXPECT_GT(stats.envelopes, 0u);
  EXPECT_LT(stats.envelopes, stats.logical_messages);
  EXPECT_GT(stats.batch_factor(), 1.0);
  EXPECT_GE(stats.largest_batch, 2u);
  // The wire only saw one envelope per flush (singletons ship raw but
  // still count as envelopes in the stats).
  EXPECT_EQ(cluster.wire_counters().total_messages(), stats.envelopes);
}

TEST(ShardedClusterTest, BatchingCanBeDisabled) {
  ShardedClusterConfig cfg = small_cluster_config();
  cfg.batching = false;
  ShardedCluster cluster(cfg);
  EXPECT_EQ(cluster.batching(), nullptr);
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(3, "plain", 1.0).ok());
  cluster.run_for(sec(2));
  EXPECT_TRUE(cluster.converged(3));
}

TEST(ShardedClusterTest, CloseFileTearsDownWholeGroup) {
  ShardedCluster cluster(small_cluster_config());
  const FileId file = 5;
  cluster.ensure_open(file);
  const std::vector<NodeId> group = cluster.group_of(file);
  client::ClientSession session(cluster, {});
  EXPECT_TRUE(session.close(file));
  for (NodeId member : group) {
    EXPECT_EQ(cluster.replica(file, member), nullptr);
  }
  EXPECT_FALSE(cluster.is_placed(file));
  EXPECT_FALSE(session.close(file));  // idempotent no-op
  cluster.run_for(sec(5));                     // no dangling timers blow up
}

TEST(ShardedClusterTest, CloseFileWithACrashedMemberThenRestart) {
  // Closing a file erases its record, dark ranks included: the restart
  // finds no group to rejoin, and the file's next write places a fresh
  // group with the restarted member in it.
  ShardedCluster cluster(small_cluster_config());
  const FileId file = 5;
  cluster.ensure_open(file);
  const NodeId crashed = cluster.group_of(file)[1];
  cluster.crash_endpoint(crashed);
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.close(file));
  cluster.run_for(sec(2));

  const RecoveryReport recovered = cluster.restart_endpoint(crashed);
  EXPECT_EQ(recovered.endpoint, crashed);
  EXPECT_EQ(recovered.files_recovered, 0u);

  ASSERT_TRUE(session.put(file, "after", 1.0).ok());
  cluster.run_for(sec(2));
  EXPECT_TRUE(cluster.converged(file));
  core::IdeaNode* replica = cluster.replica(file, crashed);
  ASSERT_NE(replica, nullptr);
  EXPECT_EQ(replica->store().update_count(), 1u);
}

// Routing: an endpoint delivers each message through its file's record
// (ShardedCluster::sink).  Ids below 2^20 resolve through the dense index,
// larger ones through the record map.

TEST(ShardedClusterTest, LargeFileIdsReplicateBesideSmallOnes) {
  ShardedCluster cluster(small_cluster_config());
  const std::vector<FileId> files = {3, (1u << 20) + 7, 4, 1u << 20,
                                     (1u << 20) - 1, 0xFFFFFFF0u};
  client::ClientSession session(cluster, {});
  for (const FileId f : files) {
    ASSERT_TRUE(session.put(f, "v", 1.0).ok()) << "file " << f;
  }
  cluster.run_for(sec(2));
  for (const FileId f : files) {
    EXPECT_TRUE(cluster.converged(f)) << "file " << f;
    const FileGroup* group = cluster.group(f);
    ASSERT_NE(group, nullptr) << "file " << f;
    for (std::uint32_t rank = 0; rank < group->ranks.size(); ++rank) {
      EXPECT_EQ(group->ranks[rank].node->store().update_count(), 1u)
          << "file " << f << " rank " << rank;
      EXPECT_EQ(cluster.sink(group->members[rank], f),
                group->ranks[rank].transport.get());
    }
    for (NodeId e = 0; e < cluster.size(); ++e) {
      if (group->rank_of(e) == group->members.size()) {
        EXPECT_EQ(cluster.sink(e, f), nullptr) << "file " << f;
      }
    }
  }
  EXPECT_EQ(cluster.sink(0, 5), nullptr);              // never placed
  EXPECT_EQ(cluster.sink(0, (1u << 20) + 8), nullptr);  // never placed
}

TEST(ShardedClusterTest, ClosedFilesDropTheirTraffic) {
  // Replication pushes are still in flight when the files close; they must
  // arrive at endpoints whose record is gone and drop there.
  ShardedCluster cluster(small_cluster_config());
  const std::vector<FileId> files = {5, (1u << 20) + 7};
  client::ClientSession session(cluster, {});
  std::vector<std::vector<NodeId>> members;
  for (const FileId f : files) {
    ASSERT_TRUE(session.put(f, "v", 1.0).ok());
    members.push_back(*cluster.members_of(f));
  }
  for (std::size_t i = 0; i < files.size(); ++i) {
    ASSERT_TRUE(session.close(files[i]));
    for (const NodeId e : members[i]) {
      EXPECT_EQ(cluster.sink(e, files[i]), nullptr);
      net::Message msg;
      msg.from = members[i][0];
      msg.to = e;
      msg.file = files[i];
      msg.type = net::MsgType::intern("shard.replicate");
      cluster.service(e).on_message(msg);  // dropped, nothing to reach
    }
  }
  cluster.run_for(sec(2));
  EXPECT_EQ(cluster.placed_files(), 0u);

  // Reopened, the files route again.
  for (const FileId f : files) {
    ASSERT_TRUE(session.put(f, "again", 1.0).ok());
  }
  cluster.run_for(sec(2));
  for (const FileId f : files) {
    EXPECT_TRUE(cluster.converged(f));
    EXPECT_EQ(cluster.replica_at_rank(f, 2)->store().update_count(), 1u);
  }
}

TEST(ShardedClusterTest, ACrashedMembersRankDropsItsTraffic) {
  ShardedClusterConfig cfg = small_cluster_config();
  cfg.anti_entropy_period = msec(500);  // heals the restart's gap
  ShardedCluster cluster(cfg);
  const std::vector<FileId> files = {5, (1u << 20) + 7};
  for (const FileId f : files) cluster.ensure_open(f);
  const NodeId crashed = cluster.group_of(files[0])[1];
  cluster.crash_endpoint(crashed);
  client::ClientSession session(cluster, {});
  for (const FileId f : files) {
    const FileGroup* group = cluster.group(f);
    const std::uint32_t rank = group->rank_of(crashed);
    if (rank < group->members.size()) {
      EXPECT_EQ(cluster.sink(crashed, f), nullptr) << "file " << f;
    }
    ASSERT_TRUE(session.put(f, "while-down", 1.0).ok());
  }
  cluster.run_for(sec(2));  // pushes to the dark rank drop
  for (const FileId f : files) EXPECT_TRUE(cluster.converged(f));

  // The restart lights the rank again: pushes and repairs reach it.
  cluster.restart_endpoint(crashed);
  ASSERT_TRUE(session.put(files[0], "after", 1.0).ok());
  cluster.run_for(sec(5));
  const FileGroup* group = cluster.group(files[0]);
  const std::uint32_t rank = group->rank_of(crashed);
  EXPECT_EQ(cluster.sink(crashed, files[0]),
            group->ranks[rank].transport.get());
  EXPECT_EQ(group->ranks[rank].node->store().update_count(), 2u);
  EXPECT_TRUE(cluster.converged(files[0]));
}

TEST(ShardedClusterTest, IdlePlacedGroupsScheduleNothing) {
  // A rank is a store and a sync agent: with anti-entropy, replication
  // resends and checkpoints off (the defaults), a placed file that sees no
  // operation runs no timer at all.
  ShardedClusterConfig cfg = small_cluster_config();
  ASSERT_EQ(cfg.anti_entropy_period, 0);
  ASSERT_EQ(cfg.replication_resend_timeout, 0);
  ASSERT_FALSE(cfg.checkpoint.enabled());
  ShardedCluster cluster(cfg);
  cluster.place(1, 40);
  const std::uint64_t before = cluster.sim().events_processed();
  cluster.run_for(sec(60));
  EXPECT_EQ(cluster.sim().events_processed(), before);
}

TEST(ShardedClusterTest, FailoverCoordinatorLearnsAnUpdateOnlyAPeerHeld) {
  // Anti-entropy on; batching off so each digest reaches the wire at once.
  ShardedClusterConfig cfg = small_cluster_config(5150);
  cfg.batching = false;
  cfg.anti_entropy_period = sec(1);
  ShardedCluster cluster(cfg);
  client::ClientSession session(cluster, {});
  const FileId file = 21;
  const std::vector<NodeId> m = cluster.ensure_open(file)->members;
  ASSERT_TRUE(session.put(file, "base", 1.0).ok());
  cluster.run_for(sec(10));
  ASSERT_TRUE(cluster.converged(file));

  // A w = 1 put whose push reaches rank 2 but not rank 1, then the
  // coordinator crashes: rank 1 takes over without the update, and only
  // rank 2 still holds it.
  cluster.transport().partition(m[0], m[1]);
  ASSERT_TRUE(session.put(file, "only-rank-2", 5.0).ok());
  cluster.run_for(msec(400));
  ASSERT_EQ(cluster.replica_at_rank(file, 2)->store().update_count(), 2u);
  ASSERT_EQ(cluster.replica_at_rank(file, 1)->store().update_count(), 1u);
  cluster.crash_endpoint(m[0]);
  cluster.transport().heal(m[0], m[1]);
  ASSERT_EQ(cluster.coordinator(file).second, m[1]);

  // Rank 2's mutation re-armed its rounds; step until its digest reaches
  // rank 1, the acting coordinator.  The digest carries counts only: the
  // update follows as the push-back to rank 1's reply.
  const ReplicaSyncStats& acting = cluster.sync_agent(file, 1)->stats();
  const std::uint64_t digests = acting.digests_received;
  const SimTime deadline = cluster.sim().now() + sec(10);
  while (acting.digests_received == digests &&
         cluster.sim().now() < deadline) {
    cluster.sim().step();
  }
  ASSERT_GT(acting.digests_received, digests) << "rank 2 never digested";
  EXPECT_EQ(cluster.replica_at_rank(file, 1)->store().update_count(), 1u);

  cluster.run_for(sec(3));
  EXPECT_EQ(cluster.replica_at_rank(file, 1)->store().update_count(), 2u);
  EXPECT_TRUE(cluster.converged(file));
  // A strong read, served by the new coordinator, sees the update.
  const auto read = session.read(file);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->served_by, m[1]);
  EXPECT_TRUE(std::any_of(read->updates->begin(), read->updates->end(),
                          [](const replica::Update& u) {
                            return u.content == "only-rank-2";
                          }));
}

TEST(ShardedClusterTest, EndToEndPlacementWriteConverge) {
  // The acceptance flow: place a tenant population, write through a
  // client session, run the sim, and require every group to converge.
  ShardedCluster cluster(small_cluster_config(991));
  cluster.place(1, 30);
  client::ClientSession session(cluster, {});
  for (FileId f = 1; f <= 30; ++f) {
    ASSERT_TRUE(session.put(f, "payload-" + std::to_string(f),
                            0.25 * static_cast<double>(f % 4))
                    .ok());
  }
  cluster.run_for(sec(30));
  for (FileId f = 1; f <= 30; ++f) {
    EXPECT_TRUE(cluster.converged(f)) << "file " << f << " diverged";
    for (std::uint32_t rank = 0; rank < 3; ++rank) {
      EXPECT_GE(cluster.replica_at_rank(f, rank)->store().update_count(),
                1u);
    }
  }
}

}  // namespace
}  // namespace idea::shard
