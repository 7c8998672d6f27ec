/// \file write_concern_test.cpp
/// \brief WriteConcern{w} end to end: pending ack handles, sloppy-quorum
///        hinted handoff, give-up anti-entropy, and the R+W>N oracle.
///
/// The oracle assertions are the acceptance criteria of the write-side
/// half of the tunable-consistency matrix:
///  * a w=majority put resolves only after the coordinator confirms the
///    peer applies (OpHandle pending semantics);
///  * a default w=1 put with rank 0 down resolves on return, named for
///    and charged to the acting coordinator that applied it;
///  * a sloppy-quorum write hints a crashed member at a live stand-in and
///    the hint drains exactly once when the member restarts;
///  * an exhausted resend budget is never silent — give-up fires targeted
///    anti-entropy digests, so the group converges with periodic AE off;
///  * every w-acked write survives any single-endpoint crash among the
///    group (coordinator included), observed through majority quorum
///    reads (R + W > N);
///  * under scripted loss plus a crash/restart cycle, a Quorum{majority}
///    read never misses a w=majority-acked write.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "client/session.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::client {
namespace {

shard::ShardedClusterConfig concern_config(std::uint64_t seed,
                                           SimDuration anti_entropy = 0) {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = 6;
  cfg.replication = 3;
  cfg.seed = seed;
  cfg.sync_sizes();
  cfg.anti_entropy_period = anti_entropy;
  return cfg;
}

/// Independent staleness oracle: versions the `endpoint` replica of
/// `file` is missing relative to the acting coordinator, right now.
std::uint64_t versions_behind(shard::ShardedCluster& cluster, FileId file,
                              NodeId endpoint) {
  core::IdeaNode* coordinator = cluster.replica_at_rank(file, 0);
  core::IdeaNode* node = cluster.replica(file, endpoint);
  if (coordinator == nullptr || node == nullptr) return 0;
  return coordinator->store()
      .updates_ahead_of(node->store().evv().counts())
      .size();
}

TEST(WriteConcernTest, MajorityPutResolvesOnlyAfterPeerAck) {
  shard::ShardedCluster cluster(concern_config(11));
  Client client(cluster);
  ClientSession session = client.session(
      {.write_concern = WriteConcern::majority(), .origin = 1});

  const FileId file = 7;
  const OpHandle<WriteAck> h = session.put(file, "wmaj", 1.0);
  // The handle is pending: with w = 2 of 3 the coordinator's local apply
  // is not enough, and the peer ack needs a round trip on the sim clock.
  EXPECT_FALSE(h.resolved());
  EXPECT_FALSE(h.done());

  bool fired = false;
  h.on_complete([&](const OpHandle<WriteAck>& done) {
    fired = true;
    EXPECT_TRUE(done->w_satisfied);
  });
  cluster.run_for(sec(1));

  ASSERT_TRUE(h.resolved());
  EXPECT_TRUE(h.ok());
  EXPECT_TRUE(fired);
  EXPECT_TRUE(h->applied);
  EXPECT_TRUE(h->w_satisfied);
  EXPECT_GE(h->acks, 2u);  // coordinator + at least one peer
  EXPECT_EQ(h->hinted, 0u);
  EXPECT_EQ(h->coordinator, cluster.coordinator_endpoint(file));
  EXPECT_GT(h.latency(), 0);

  EXPECT_EQ(session.stats().wack_puts, 1u);
  EXPECT_EQ(session.stats().puts, 1u);
  EXPECT_EQ(session.stats().wack_failed_puts, 0u);
  EXPECT_EQ(cluster.router().stats().wack_writes, 1u);
  const shard::ReplicaSyncAgent* agent = cluster.coordinator(file).first;
  ASSERT_NE(agent, nullptr);
  EXPECT_EQ(agent->stats().wack_tracked, 1u);
  EXPECT_EQ(agent->stats().wack_satisfied, 1u);
  EXPECT_GE(agent->stats().acks_received, 1u);
}

TEST(WriteConcernTest, DefaultPutFailsOverToTheActingCoordinator) {
  // A default w = 1 put while rank 0 is down is applied by the lowest
  // alive rank.  The ack must name that acting coordinator and charge
  // the round trip to it, not to the dead rank 0; and with resends off,
  // a w = 1 put asks no receiver for an ack.
  shard::ShardedCluster cluster(concern_config(77));
  Client client(cluster);

  const FileId file = 13;
  ASSERT_TRUE(cluster.ensure_open(file) != nullptr);
  const std::vector<NodeId> group = cluster.group_of(file);
  ASSERT_EQ(group.size(), 3u);
  NodeId origin = 0;
  while (std::find(group.begin(), group.end(), origin) != group.end()) {
    ++origin;
  }
  ClientSession session = client.session({.origin = origin});

  cluster.crash_endpoint(group[0]);
  const NodeId acting = cluster.coordinator(file).second;
  ASSERT_EQ(acting, group[1]);
  ASSERT_NE(cluster.router().rtt(origin, acting),
            cluster.router().rtt(origin, group[0]))
      << "seed layout changed: both round trips match; pick another seed";

  const OpHandle<WriteAck> h = session.put(file, "failover", 1.0);
  ASSERT_TRUE(h.resolved()) << "a w = 1 put must resolve on return";
  EXPECT_TRUE(h.ok());
  EXPECT_TRUE(h->applied);
  EXPECT_TRUE(h->w_satisfied);
  EXPECT_EQ(h->acks, 1u);
  EXPECT_EQ(h->coordinator, acting);
  EXPECT_EQ(h.latency(), cluster.router().rtt(origin, acting));
  EXPECT_EQ(cluster.router().stats().failover_writes, 1u);
  EXPECT_EQ(session.stats().wack_puts, 0u);

  cluster.run_for(sec(1));
  const net::MsgType ack = shard::ReplicaSyncAgent::kAckType;
  EXPECT_EQ(cluster.edge().counters().messages_of(ack), 0u);
  EXPECT_EQ(cluster.replica(file, group[2])->store().update_count(), 1u)
      << "the acting coordinator's push reached the other live member";
}

TEST(WriteConcernTest, SloppyQuorumHintsCrashedMemberAndDrainsOnce) {
  shard::ShardedCluster cluster(concern_config(22));
  Client client(cluster);
  ClientSession session =
      client.session({.write_concern = WriteConcern::all(), .origin = 0});

  const FileId file = 9;
  ASSERT_TRUE(session.open(file));
  const std::vector<NodeId> group = cluster.group_of(file);
  ASSERT_EQ(group.size(), 3u);
  const NodeId dark = group[2];
  cluster.crash_endpoint(dark);

  // w = all of 3 with one member dark: the write must count a hinted
  // stand-in toward w (sloppy quorum) and still resolve satisfied.
  const OpHandle<WriteAck> h = session.put(file, "sloppy", 1.0);
  cluster.run_for(sec(1));
  ASSERT_TRUE(h.resolved());
  EXPECT_TRUE(h.ok());
  EXPECT_TRUE(h->w_satisfied);
  EXPECT_EQ(h->acks, 2u);    // both live members
  EXPECT_EQ(h->hinted, 1u);  // the dark one, via its stand-in
  EXPECT_EQ(session.stats().hinted_puts, 1u);

  // The hint is durably parked at a live non-member endpoint.
  EXPECT_EQ(cluster.hint_store().depth(), 1u);
  EXPECT_EQ(cluster.hint_store().depth_for(dark), 1u);
  const replica::HintedWrite& hint = cluster.hint_store().hints().front();
  EXPECT_EQ(hint.target, dark);
  EXPECT_TRUE(cluster.has_endpoint(hint.stand_in));
  for (NodeId member : group) EXPECT_NE(hint.stand_in, member);
  EXPECT_EQ(cluster.router().stats().sloppy_writes, 1u);
  EXPECT_EQ(cluster.router().stats().hinted_writes, 1u);

  // Restart: the hint drains exactly once.  The batch imports into the
  // acting coordinator (which already applied it — hence the duplicate
  // count, the exactly-once evidence) and the targeted digest carries it
  // to the restarted member over the ordinary repair path.
  const shard::RecoveryReport rec = cluster.restart_endpoint(dark);
  EXPECT_EQ(rec.hinted_updates, 1u);
  EXPECT_EQ(rec.hinted_duplicates, 1u);
  EXPECT_EQ(cluster.hint_store().depth(), 0u);
  EXPECT_EQ(cluster.hint_store().stats().drained, 1u);

  cluster.run_for(sec(2));
  EXPECT_EQ(versions_behind(cluster, file, dark), 0u)
      << "hinted write failed to drain to the restarted member";
  // Exactly once: the restarted replica holds the same log as the
  // coordinator, no duplicated applies.
  EXPECT_EQ(cluster.replica(file, dark)->store().update_count(),
            cluster.replica_at_rank(file, 0)->store().update_count());
}

TEST(WriteConcernTest, MigrationReMintsHintsForStillCrashedMembers) {
  // Mint -> migrate -> drain: a hint parked for a crashed member must
  // survive a membership change that reshapes the member's group.  The
  // migration re-mints it at a fresh stand-in (outside the new group)
  // instead of dropping it with the old group, and the restarted member
  // still drains the write exactly once.
  shard::ShardedCluster cluster(concern_config(66));
  Client client(cluster);
  ClientSession session =
      client.session({.write_concern = WriteConcern::all(), .origin = 0});

  const FileId file = 9;
  ASSERT_TRUE(session.open(file));
  const std::vector<NodeId> group = cluster.group_of(file);
  ASSERT_EQ(group.size(), 3u);
  const NodeId dark = group[2];
  cluster.crash_endpoint(dark);
  const OpHandle<WriteAck> h = session.put(file, "owed", 1.0);
  cluster.run_for(sec(1));
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(h->hinted, 1u);
  ASSERT_EQ(cluster.hint_store().depth_for(dark), 1u);

  // A live member leaves while the debt is outstanding.
  cluster.remove_endpoint(group[1]);
  const std::vector<NodeId> regrouped = cluster.group_of(file);
  ASSERT_NE(std::find(regrouped.begin(), regrouped.end(), dark),
            regrouped.end())
      << "seed layout changed: the crashed member left the group and the "
         "re-mint path is not exercised; pick another seed";
  EXPECT_GE(cluster.hint_store().stats().reminted, 1u);
  EXPECT_EQ(cluster.hint_store().depth_for(dark), 1u);
  const replica::HintedWrite& hint = cluster.hint_store().hints().front();
  EXPECT_EQ(hint.target, dark);
  EXPECT_TRUE(cluster.has_endpoint(hint.stand_in));
  for (NodeId member : regrouped) EXPECT_NE(hint.stand_in, member);

  // The debt pays out after the migration exactly as it would have
  // before it.
  const shard::RecoveryReport rec = cluster.restart_endpoint(dark);
  EXPECT_EQ(rec.hinted_updates, 1u);
  EXPECT_EQ(cluster.hint_store().depth(), 0u);
  EXPECT_EQ(cluster.hint_store().stats().drained, 1u);
  cluster.run_for(sec(2));
  EXPECT_EQ(versions_behind(cluster, file, dark), 0u)
      << "re-minted hint failed to drain to the restarted member";
}

TEST(WriteConcernTest, MigrationRetiresHintsWhenTheTargetLeavesTheGroup) {
  // The other half of the migration contract: when a membership change
  // moves the hinted member OUT of the file's replica group, its debt is
  // moot — the hints are retired, not re-minted — but the write is NOT
  // lost: the union snapshot folds parked hints in, so the migrated
  // group still serves it.  (Seed 60 / file 5: the joining endpoint
  // displaces the crashed member from the replica walk.)
  shard::ShardedCluster cluster(concern_config(60));
  Client client(cluster);
  ClientSession session =
      client.session({.write_concern = WriteConcern::all(), .origin = 0});

  const FileId file = 5;
  ASSERT_TRUE(session.open(file));
  const std::vector<NodeId> group = cluster.group_of(file);
  ASSERT_EQ(group.size(), 3u);
  const NodeId dark = group[2];
  cluster.crash_endpoint(dark);
  const OpHandle<WriteAck> h = session.put(file, "folded", 1.0);
  cluster.run_for(sec(1));
  ASSERT_TRUE(h.ok());
  ASSERT_EQ(cluster.hint_store().depth_for(dark), 1u);

  cluster.add_endpoint();
  const std::vector<NodeId> regrouped = cluster.group_of(file);
  ASSERT_EQ(std::find(regrouped.begin(), regrouped.end(), dark),
            regrouped.end())
      << "seed layout changed: the crashed member kept its slot and the "
         "retire path is not exercised; pick another seed";
  EXPECT_GE(cluster.hint_store().stats().retired, 1u);
  EXPECT_EQ(cluster.hint_store().depth(), 0u);
  EXPECT_EQ(cluster.hint_store().stats().reminted, 0u);

  // The write survives in the reshaped group.
  cluster.run_for(sec(1));
  ClientSession reader =
      client.session({.level = ConsistencyLevel::quorum(), .origin = 0});
  const OpHandle<ReadResult> view = reader.read(file);
  ASSERT_TRUE(view.ok());
  std::set<std::string> seen;
  for (const replica::Update& u : *view->updates) seen.insert(u.content);
  EXPECT_TRUE(seen.count("folded") > 0)
      << "hinted write lost when its target departed";
}

TEST(WriteConcernTest, GiveUpFiresTargetedAntiEntropy) {
  // Satellite: an exhausted resend budget used to leave the group
  // silently diverged when periodic anti-entropy was off.  Give-up now
  // fires a targeted digest at every still-unacked rank, so the group
  // converges as soon as the network lets the digest through.
  shard::ShardedClusterConfig cfg = concern_config(33);
  cfg.replication_resend_timeout = msec(200);
  cfg.replication_max_resends = 2;
  shard::ShardedCluster cluster(cfg);
  Client client(cluster);
  ClientSession session = client.session(
      {.write_concern = WriteConcern::majority(), .origin = 2});

  const FileId file = 5;
  ASSERT_TRUE(session.open(file));
  const std::vector<NodeId> group = cluster.group_of(file);
  ASSERT_EQ(group.size(), 3u);
  cluster.run_for(sec(1));

  // Cut the coordinator off: the push and both resends (at 200/400 ms)
  // drop, the budget exhausts at ~600 ms, and the write-concern fails.
  cluster.transport().partition(group[0], group[1]);
  cluster.transport().partition(group[0], group[2]);
  const OpHandle<WriteAck> h = session.put(file, "abandoned", 1.0);
  cluster.run_for(msec(550));
  EXPECT_FALSE(h.resolved()) << "budget should not be exhausted yet";
  cluster.transport().heal_all_partitions();
  cluster.run_for(sec(1));

  ASSERT_TRUE(h.resolved());
  EXPECT_FALSE(h.ok());
  EXPECT_TRUE(h->applied) << "the coordinator itself applied the write";
  EXPECT_FALSE(h->w_satisfied);
  EXPECT_EQ(h->acks, 1u);
  EXPECT_EQ(session.stats().wack_failed_puts, 1u);

  const shard::ReplicaSyncAgent* agent = cluster.coordinator(file).first;
  ASSERT_NE(agent, nullptr);
  EXPECT_GE(agent->stats().resend_gaveups, 1u);
  EXPECT_GE(agent->stats().gaveup_ae_digests, 2u);  // both unacked ranks
  EXPECT_GE(agent->stats().wack_failed, 1u);

  // The divergence healed through the give-up digests alone: periodic
  // anti-entropy is off in this deployment.
  EXPECT_EQ(versions_behind(cluster, file, group[1]), 0u);
  EXPECT_EQ(versions_behind(cluster, file, group[2]), 0u);
}

TEST(WriteConcernTest, WAckedWriteSurvivesAnySingleEndpointCrash) {
  // Property: with w = majority and r = majority over k = 3 (R + W > N),
  // an acked write survives the crash of ANY single endpoint among the
  // group — including the coordinator — because every read quorum
  // intersects the write's ack set.
  shard::ShardedCluster cluster(concern_config(44, /*anti_entropy=*/msec(500)));
  Client client(cluster);
  ClientSession writer = client.session(
      {.write_concern = WriteConcern::majority(), .origin = 0});

  const FileId file = 3;
  ASSERT_TRUE(writer.open(file));
  const std::vector<NodeId> group = cluster.group_of(file);
  ASSERT_EQ(group.size(), 3u);

  std::set<std::string> acked;
  for (std::size_t rank = 0; rank < group.size(); ++rank) {
    const std::string content = "surv" + std::to_string(rank);
    const OpHandle<WriteAck> h = writer.put(file, content, 1.0);
    cluster.run_for(sec(1));
    ASSERT_TRUE(h.resolved());
    ASSERT_TRUE(h.ok()) << "w=majority put should ack with all members up";
    acked.insert(content);

    cluster.crash_endpoint(group[rank]);
    cluster.run_for(msec(100));

    ClientSession reader = client.session(
        {.level = ConsistencyLevel::quorum(), .origin = 1});
    const OpHandle<ReadResult> view = reader.read(file);
    ASSERT_TRUE(view.ok());
    std::set<std::string> seen;
    for (const replica::Update& u : *view->updates) seen.insert(u.content);
    for (const std::string& c : acked) {
      EXPECT_TRUE(seen.count(c) > 0)
          << "acked write \"" << c << "\" lost after crashing rank " << rank;
    }

    cluster.restart_endpoint(group[rank]);
    cluster.run_for(sec(2));  // checkpoint gap heals via anti-entropy
  }
}

TEST(WriteConcernTest, QuorumReadNeverMissesAckedWriteUnderLossAndCrash) {
  // The R+W>N oracle under adversarial conditions: scripted loss windows
  // plus a mid-run crash/restart of a group member.  Every put whose
  // handle resolved satisfied must appear in every subsequent
  // Quorum{majority} view, at all times.
  shard::ShardedCluster cluster(concern_config(55, /*anti_entropy=*/msec(500)));
  Client client(cluster);
  ClientSession writer = client.session(
      {.write_concern = WriteConcern::majority(), .origin = 0});
  ClientSession reader =
      client.session({.level = ConsistencyLevel::quorum(), .origin = 3});

  const FileId file = 11;
  ASSERT_TRUE(writer.open(file));
  const std::vector<NodeId> group = cluster.group_of(file);
  ASSERT_EQ(group.size(), 3u);

  // Full-loss windows long enough to exhaust some write budgets.
  cluster.transport().add_drop_window(msec(900), msec(1900));
  cluster.transport().add_drop_window(sec(4), sec(5));

  std::vector<std::pair<OpHandle<WriteAck>, std::string>> in_flight;
  std::set<std::string> acked;
  for (int i = 0; i < 30; ++i) {
    const std::string content = "rw" + std::to_string(i);
    in_flight.emplace_back(writer.put(file, content, 1.0), content);
    cluster.run_for(msec(200));

    if (i == 10) cluster.crash_endpoint(group[1]);
    if (i == 20) {
      cluster.restart_endpoint(group[1]);
      cluster.run_for(sec(1));
    }

    // Harvest: only writes whose concern resolved satisfied enter the
    // oracle — an unsatisfied (given-up) write promises nothing.
    for (const auto& [h, c] : in_flight) {
      if (h.resolved() && h->w_satisfied) acked.insert(c);
    }

    const OpHandle<ReadResult> view = reader.read(file);
    ASSERT_TRUE(view.ok());
    EXPECT_GE(view->replicas_contacted, 2u);
    std::set<std::string> seen;
    for (const replica::Update& u : *view->updates) seen.insert(u.content);
    for (const std::string& c : acked) {
      EXPECT_TRUE(seen.count(c) > 0)
          << "w-acked write \"" << c << "\" missing from quorum view at op "
          << i;
    }
  }
  EXPECT_GE(acked.size(), 10u) << "oracle exercised too few acked writes";
  EXPECT_GT(cluster.router().stats().wack_writes, 0u);
}

}  // namespace
}  // namespace idea::client
