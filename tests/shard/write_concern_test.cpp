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
///  * a pending put outlives a peer's restart: the coordinator keeps its
///    agent, so the put resolves satisfied once a resend lands, and the
///    restart pushes the returning member the put at once, so its ack
///    can satisfy the put before any resend timer fires;
///  * re-sends go by silent rank: one push carries every update the rank
///    has not acked, at most one per half timeout, and one ack answers
///    it, while budgets and give-up times stay per update;
///  * every w-acked write survives any single-endpoint crash among the
///    group (coordinator included), observed through majority quorum
///    reads (R + W > N);
///  * under scripted loss plus a crash/restart cycle, a Quorum{majority}
///    read never misses a w=majority-acked write.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
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

TEST(WriteConcernTest, PendingPutSurvivesAPeersRestart) {
  // The third member is down and the push to the live peer falls in a
  // full-loss window, so a w = majority put waits for a resend (the
  // write-concern timeout is 500 ms).  The third member restarts inside
  // the window, so the push the restart sends it is lost too.  A restart
  // builds only that member's replica, so the coordinator's agent and
  // the put it tracks carry on, and the resend collects the ack the
  // concern needs.
  shard::ShardedCluster cluster(concern_config(88));
  Client client(cluster);
  ClientSession session = client.session(
      {.write_concern = WriteConcern::majority(), .origin = 0});

  const FileId file = 4;
  ASSERT_TRUE(session.open(file));
  const std::vector<NodeId> group = cluster.group_of(file);
  ASSERT_EQ(group.size(), 3u);
  cluster.crash_endpoint(group[2]);
  const SimTime start = cluster.sim().now();
  cluster.transport().add_drop_window(start, start + msec(300));

  const OpHandle<WriteAck> h = session.put(file, "kept", 1.0);
  cluster.run_for(msec(200));
  ASSERT_FALSE(h.resolved()) << "the push to the live peer was not lost";
  cluster.restart_endpoint(group[2]);
  EXPECT_FALSE(h.resolved()) << "the restart resolved the pending put";

  cluster.run_for(sec(1));
  ASSERT_TRUE(h.resolved());
  EXPECT_TRUE(h.ok());
  EXPECT_TRUE(h->w_satisfied);
  EXPECT_GE(h->acks, 2u);
  EXPECT_EQ(h->hinted, 0u);
  const shard::ReplicaSyncAgent* agent = cluster.coordinator(file).first;
  ASSERT_NE(agent, nullptr);
  EXPECT_EQ(agent->stats().wack_satisfied, 1u);
  EXPECT_EQ(agent->stats().wack_failed, 0u);
  EXPECT_EQ(versions_behind(cluster, file, group[1]), 0u);
}

TEST(WriteConcernTest, ARestartedPeerGetsItsUnackedPushAtOnce) {
  // As above, but the loss window closes before the third member
  // restarts.  The restart pushes that member the put it never acked at
  // once, not at the 500 ms resend timer, so its ack satisfies the
  // w = majority put while the live peer still lacks the write.
  shard::ShardedCluster cluster(concern_config(89));
  Client client(cluster);
  ClientSession session = client.session(
      {.write_concern = WriteConcern::majority(), .origin = 0});

  const FileId file = 4;
  ASSERT_TRUE(session.open(file));
  const std::vector<NodeId> group = cluster.group_of(file);
  ASSERT_EQ(group.size(), 3u);
  cluster.crash_endpoint(group[2]);
  const SimTime start = cluster.sim().now();
  cluster.transport().add_drop_window(start, start + msec(150));

  const OpHandle<WriteAck> h = session.put(file, "pushed", 1.0);
  cluster.run_for(msec(200));
  ASSERT_FALSE(h.resolved()) << "the push to the live peer was not lost";
  cluster.restart_endpoint(group[2]);
  cluster.run_for(msec(250));  // the put's resend timer is not yet due

  ASSERT_TRUE(h.resolved());
  EXPECT_TRUE(h->w_satisfied);
  EXPECT_EQ(h->acks, 2u);
  EXPECT_EQ(versions_behind(cluster, file, group[1]), 1u);
  EXPECT_EQ(versions_behind(cluster, file, group[2]), 0u);
}

/// One replicate push or ack delivered on the edge transport (global
/// endpoint ids).
struct SeenPush {
  net::MsgType type;
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::uint32_t bytes = 0;
};

/// Stands in for an endpoint on the edge transport: records every
/// replicate push and ack delivered to it, then hands the message on.
class PushRecorder final : public net::MessageHandler {
 public:
  PushRecorder(net::MessageHandler& target, std::vector<SeenPush>& seen)
      : target_(target), seen_(seen) {}

  void on_message(const net::Message& msg) override {
    if (msg.type == shard::ReplicaSyncAgent::kReplicateType ||
        msg.type == shard::ReplicaSyncAgent::kAckType) {
      seen_.push_back({msg.type, msg.from, msg.to, msg.wire_bytes});
    }
    target_.on_message(msg);
  }

 private:
  net::MessageHandler& target_;
  std::vector<SeenPush>& seen_;
};

/// A hot file under the loss window the benchmark's rw_loss workload
/// scripts: 20 w = 1 puts, 50 ms apart, inside a 1.2 s full-loss window,
/// with rw_loss's 300 ms resend timeout and six re-sends, so every budget
/// outlasts the window.  Anti-entropy is off: only re-sends can heal.
struct HotFileUnderLoss {
  static constexpr FileId kFile = 5;
  static constexpr SimDuration kTimeout = msec(300);
  static constexpr SimDuration kWindow = msec(1200);
  static constexpr int kPuts = 20;

  shard::ShardedCluster cluster;
  Client client;
  SimTime start = 0;

  HotFileUnderLoss() : cluster(config()), client(cluster) {
    cluster.ensure_open(kFile);
    cluster.run_for(sec(1));
    start = cluster.sim().now();
    cluster.transport().add_drop_window(start, start + kWindow);
  }

  static shard::ShardedClusterConfig config() {
    shard::ShardedClusterConfig cfg = concern_config(4207);
    cfg.replication_resend_timeout = kTimeout;
    cfg.replication_max_resends = 6;
    return cfg;
  }

  /// Schedule the 20 puts from `session`, the first at the window's open.
  void schedule_puts(ClientSession& session) {
    for (int i = 0; i < kPuts; ++i) {
      cluster.sim().schedule_at(start + msec(50) * i, [&session, i] {
        ASSERT_TRUE(session.put(kFile, "hot" + std::to_string(i), 1.0).ok());
      });
    }
  }

  [[nodiscard]] std::uint64_t pushes_sent() {
    return cluster.edge().counters().messages_of(
        shard::ReplicaSyncAgent::kReplicateType);
  }
};

TEST(WriteConcernTest, ReSendsGoOnePushPerSilentRankPerHalfTimeout) {
  // Each of the 20 updates runs its own timer, yet each silent rank gets
  // at most one re-send push per half timeout: at most
  // ceil(1.2 s / 150 ms) + 1 = 9 during the window.  The full-loss window
  // silences both followers for every update, so each gets the same
  // pushes.  After the window one push carries every update a rank lacks:
  // every update is acked, none is given up, and the group converges
  // with anti-entropy off, and each follower counts every update it
  // holds as applied.
  HotFileUnderLoss hot;
  ClientSession session = hot.client.session({.origin = 0});
  const std::uint64_t before = hot.pushes_sent();
  hot.schedule_puts(session);
  hot.cluster.run_until(hot.start + HotFileUnderLoss::kWindow);
  EXPECT_EQ(hot.cluster.replica_at_rank(HotFileUnderLoss::kFile, 1)
                ->store()
                .update_count(),
            0u)
      << "the loss window let a push through";
  const std::uint64_t resends =
      hot.pushes_sent() - before - 2 * HotFileUnderLoss::kPuts;
  EXPECT_GT(resends, 0u);
  EXPECT_LE(resends, 2u * 9u);

  hot.cluster.run_for(sec(3));
  const shard::ReplicaSyncAgent* coord =
      hot.cluster.sync_agent(HotFileUnderLoss::kFile, 0);
  EXPECT_EQ(coord->stats().resend_gaveups, 0u);
  EXPECT_EQ(coord->stats().gaveup_ae_digests, 0u);
  EXPECT_LT(coord->stats().acks_received, 2u * HotFileUnderLoss::kPuts)
      << "an ack answers a whole push, not one update";
  for (const NodeId rank : {1u, 2u}) {
    EXPECT_EQ(hot.cluster.replica_at_rank(HotFileUnderLoss::kFile, rank)
                  ->store()
                  .update_count(),
              static_cast<std::size_t>(HotFileUnderLoss::kPuts))
        << "rank " << rank;
    EXPECT_EQ(
        hot.cluster.sync_agent(HotFileUnderLoss::kFile, rank)->stats().applied,
        static_cast<std::uint64_t>(HotFileUnderLoss::kPuts))
        << "rank " << rank;
  }
  EXPECT_TRUE(hot.cluster.converged(HotFileUnderLoss::kFile));
  // Every update was acked by both ranks: nothing is left to re-send.
  const std::uint64_t settled = hot.pushes_sent();
  hot.cluster.run_for(sec(3));
  EXPECT_EQ(hot.pushes_sent(), settled);
}

TEST(WriteConcernTest, AMajorityPutInsideTheWindowResolvesOnce) {
  // A w = majority put among the hot file's w = 1 puts: both followers
  // ack it in one cumulative ack each after the window, and the put
  // resolves exactly once, satisfied, on the first.
  HotFileUnderLoss hot;
  ClientSession session = hot.client.session({.origin = 0});
  ClientSession majority = hot.client.session(
      {.write_concern = WriteConcern::majority(), .origin = 0});
  hot.schedule_puts(session);
  OpHandle<WriteAck> h;
  int completions = 0;
  hot.cluster.sim().schedule_at(hot.start + msec(425), [&] {
    h = majority.put(HotFileUnderLoss::kFile, "majority", 1.0);
    h.on_complete([&](const OpHandle<WriteAck>&) { ++completions; });
  });
  hot.cluster.run_until(hot.start + HotFileUnderLoss::kWindow);
  ASSERT_TRUE(h.valid());
  EXPECT_FALSE(h.resolved()) << "the put was acked inside the window";

  hot.cluster.run_for(sec(3));
  ASSERT_TRUE(h.resolved());
  EXPECT_TRUE(h.ok());
  EXPECT_TRUE(h->w_satisfied);
  EXPECT_EQ(h->acks, 2u);
  EXPECT_EQ(completions, 1);
  const shard::ReplicaSyncAgent* coord =
      hot.cluster.sync_agent(HotFileUnderLoss::kFile, 0);
  EXPECT_EQ(coord->stats().wack_satisfied, 1u);
  EXPECT_EQ(coord->stats().wack_failed, 0u);
  EXPECT_TRUE(hot.cluster.converged(HotFileUnderLoss::kFile));
}

TEST(WriteConcernTest, APartitionedRankIsGivenUpOnTheUpdatesOwnSchedule) {
  // Rank 2 is cut off for good; rank 1 acks every push.  Three puts 50 ms
  // apart share rank 2's re-send pushes, so the later two sit out firings
  // the first one's push already served.  Yet each update still spends
  // its budget on its own timer: each gives up, with its digest to rank
  // 2, exactly (max_resends + 1) timeouts after its put.
  shard::ShardedClusterConfig cfg = concern_config(4207);
  cfg.replication_resend_timeout = msec(300);
  cfg.replication_max_resends = 2;
  shard::ShardedCluster cluster(cfg);
  Client client(cluster);
  ClientSession session = client.session({.origin = 0});
  const FileId file = 5;
  const std::vector<NodeId> m = cluster.ensure_open(file)->members;
  cluster.run_for(sec(1));
  cluster.transport().partition(m[0], m[2]);

  const SimTime start = cluster.sim().now();
  for (int i = 0; i < 3; ++i) {
    cluster.sim().schedule_at(start + msec(50) * i, [&session, file, i] {
      ASSERT_TRUE(session.put(file, "cut" + std::to_string(i), 1.0).ok());
    });
  }
  const shard::ReplicaSyncStats& coord = cluster.sync_agent(file, 0)->stats();
  for (std::uint64_t i = 0; i < 3; ++i) {
    const SimTime due = start + msec(50) * static_cast<SimDuration>(i) +
                        3 * msec(300);
    cluster.run_until(due - 1);
    EXPECT_EQ(coord.resend_gaveups, i) << "update " << i << " gave up early";
    cluster.run_until(due);
    EXPECT_EQ(coord.resend_gaveups, i + 1) << "update " << i;
    EXPECT_EQ(coord.gaveup_ae_digests, i + 1) << "update " << i;
  }
  EXPECT_EQ(cluster.sync_agent(file, 1)->stats().applied, 3u);
  EXPECT_EQ(cluster.sync_agent(file, 2)->stats().applied, 0u);
}

TEST(WriteConcernTest, ARestartedFollowerGetsOnePushAndOneAck) {
  // Rank 2 is down for five puts.  Its restart sends it one push that
  // carries all five, and its one ack names all five keys: 24 bytes plus
  // 12 per key after the first (anti-entropy is off, so no counts).  The
  // ack clears every pending update, so no re-send follows.
  shard::ShardedClusterConfig cfg = concern_config(4207);
  cfg.replication_resend_timeout = msec(300);
  shard::ShardedCluster cluster(cfg);
  Client client(cluster);
  ClientSession session = client.session({.origin = 0});
  const FileId file = 5;
  const std::vector<NodeId> m = cluster.ensure_open(file)->members;
  cluster.run_for(sec(1));
  cluster.crash_endpoint(m[2]);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(session.put(file, "owed" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(msec(100));  // rank 1's acks land; no timer is due yet
  cluster.restart_endpoint(m[2]);

  std::vector<SeenPush> seen;
  std::vector<std::unique_ptr<PushRecorder>> recorders;
  for (const NodeId e : {m[0], m[2]}) {
    recorders.push_back(
        std::make_unique<PushRecorder>(cluster.service(e), seen));
    cluster.edge().attach(e, recorders.back().get());
  }
  cluster.run_for(sec(2));

  std::uint32_t expected_push = 16;
  for (const replica::Update& u :
       cluster.replica(file, m[0])->store().updates_ahead_of({})) {
    expected_push += u.wire_bytes();
  }
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].type, shard::ReplicaSyncAgent::kReplicateType);
  EXPECT_EQ(seen[0].from, m[0]);
  EXPECT_EQ(seen[0].to, m[2]);
  EXPECT_EQ(seen[0].bytes, expected_push);
  EXPECT_EQ(seen[1].type, shard::ReplicaSyncAgent::kAckType);
  EXPECT_EQ(seen[1].from, m[2]);
  EXPECT_EQ(seen[1].to, m[0]);
  EXPECT_EQ(seen[1].bytes, 24u + 12u * 4u);
  EXPECT_EQ(cluster.sync_agent(file, 2)->stats().applied, 5u);
  EXPECT_EQ(cluster.sync_agent(file, 0)->stats().resend_gaveups, 0u);
  EXPECT_EQ(versions_behind(cluster, file, m[2]), 0u);
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
