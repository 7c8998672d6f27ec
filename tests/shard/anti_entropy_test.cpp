/// \file anti_entropy_test.cpp
/// \brief Anti-entropy repair: replicas that missed replication pushes
///        (scripted loss windows, pairwise partitions) converge again
///        within a bounded number of digest rounds after the fault heals.
///
/// The control runs prove causality: with anti-entropy disabled the same
/// fault leaves replicas permanently diverged — the push-only protocol
/// never retransmits — so the convergence observed in the main runs is
/// attributable to the digest/repair exchange, not to luck.
///
/// Rounds run only where two replicas may differ, and only on the acting
/// coordinator, so the tests also pin that placement and a quiet group
/// send no digest, even while a member is down, that an acked push that
/// lands sends none either (its ack refreshes the follower's hint, while
/// an ack without anti-entropy carries no counts), that a rank owing an
/// ack is left to it (a put in flight at a grid point, sent into a loss
/// window, or parked behind an owed one is digested by no round, a short
/// ack or a give-up hands the rank back to the next round, and a rank
/// whose acks show it lacking more than the pushes in flight will bring
/// it, an empty or restarted store's included, is digested anyway), that
/// a put with acks off costs one coordinator round of k - 1 digests, that
/// a follower never digests, that a coordinator's crash or restart costs
/// one exchange per live follower and a loss-free join none, that a new
/// or restarted coordinator learns what only its followers hold even
/// while they owe it acks, that placement with rank 0 down runs no
/// round, that a restarted follower, with or without a checkpoint, heals
/// within one period (its delta travelling once), that a dark rank is
/// sent nothing yet its restart gets one push of what it never acked,
/// that pushes carry updates only and the stats count only what is sent,
/// that a digest's size does not grow with the log, that generated fault
/// schedules, with and without crashes, churn and acks, still converge,
/// and that the agent keeps its size.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/session.hpp"
#include "shard/sharded_cluster.hpp"
#include "step_until.hpp"
#include "util/rng.hpp"

namespace idea::shard {
namespace {

constexpr SimDuration kAePeriod = msec(500);

ShardedClusterConfig ae_config(std::uint64_t seed, bool anti_entropy) {
  ShardedClusterConfig cfg;
  cfg.endpoints = 6;
  cfg.replication = 3;
  cfg.seed = seed;
  cfg.sync_sizes();
  cfg.anti_entropy_period = anti_entropy ? kAePeriod : 0;
  return cfg;
}

/// All replicas of `file` hold identical histories: same version-vector
/// counts and the same order-sensitive content digest.  (The full EVV
/// carries each node's own error triple, which legitimately differs per
/// replica; counts + digest pin the replicated state itself.)
bool replicas_identical(ShardedCluster& cluster, FileId file) {
  core::IdeaNode* coord = cluster.replica_at_rank(file, 0);
  if (coord == nullptr) return false;
  const auto k =
      static_cast<std::uint32_t>(cluster.group_of(file).size());
  for (std::uint32_t rank = 1; rank < k; ++rank) {
    core::IdeaNode* node = cluster.replica_at_rank(file, rank);
    if (node == nullptr) return false;
    if (node->store().evv().counts() != coord->store().evv().counts()) {
      return false;
    }
    if (node->store().content_digest() !=
        coord->store().content_digest()) {
      return false;
    }
  }
  return true;
}

/// Run the cluster one anti-entropy period at a time until every file's
/// replicas are identical; returns the number of periods it took, or -1
/// if `max_periods` was not enough.
int periods_to_convergence(ShardedCluster& cluster, FileId first,
                           FileId count, int max_periods) {
  for (int period = 0; period <= max_periods; ++period) {
    bool all = true;
    for (FileId f = first; f < first + count; ++f) {
      if (!replicas_identical(cluster, f)) {
        all = false;
        break;
      }
    }
    if (all) return period;
    cluster.run_for(kAePeriod);
  }
  return -1;
}

TEST(AntiEntropyTest, LossWindowOverWritesHealsWithinBoundedRounds) {
  // The acceptance scenario: a scripted 100%-loss window swallowing 25%
  // of the writes (>= the 20% the issue demands), healed by anti-entropy
  // within a bounded number of rounds.
  constexpr FileId kFile = 3;
  constexpr int kWrites = 40;

  auto run = [&](bool anti_entropy) {
    auto cluster =
        std::make_unique<ShardedCluster>(ae_config(2024, anti_entropy));
    cluster->ensure_open(kFile);
    auto session = std::make_shared<client::ClientSession>(
        *cluster, client::SessionOptions{});
    // 40 writes, 250 ms apart, from t=250ms; the window [2s, 4.5s) covers
    // the 10 writes at 2.0s..4.25s inclusive = 25%.
    for (int i = 1; i <= kWrites; ++i) {
      const SimTime t = msec(250) * i;
      cluster->sim().schedule_at(t, [session, i, kFile] {
        ASSERT_TRUE(session->put(kFile, "w" + std::to_string(i), 1.0).ok());
      });
    }
    cluster->transport().add_drop_window(sec(2), sec(4) + msec(500));
    return cluster;
  };

  auto cluster = run(/*anti_entropy=*/true);
  // Run the workload to just past the window while it is still lossy.
  cluster->run_until(sec(4) + msec(400));
  EXPECT_GT(cluster->transport().fault_dropped(), 0u);
  EXPECT_FALSE(replicas_identical(*cluster, kFile))
      << "the loss window failed to create divergence";

  // Finish the workload, then demand convergence within a bounded number
  // of anti-entropy periods.  Rotation pairs every two ranks within
  // k-1 = 2 periods; one extra period absorbs message latency.
  cluster->run_until(sec(11));
  const int periods = periods_to_convergence(*cluster, kFile, 1, 4);
  ASSERT_NE(periods, -1) << "replicas still diverged after 4 rounds";
  EXPECT_LE(periods, 3);

  core::IdeaNode* coord = cluster->replica_at_rank(kFile, 0);
  EXPECT_EQ(coord->store().update_count(),
            static_cast<std::size_t>(kWrites));
  const ReplicaSyncStats& s0 = cluster->sync_agent(kFile, 0)->stats();
  EXPECT_GT(s0.ae_rounds, 0u);
  EXPECT_GT(s0.repair_updates_sent, 0u);

  // Control: the identical fault without anti-entropy never recovers.
  auto control = run(/*anti_entropy=*/false);
  control->run_until(sec(30));
  EXPECT_FALSE(replicas_identical(*control, kFile))
      << "push-only replication recovered on its own; the loss window "
         "is not actually forcing divergence";
}

TEST(AntiEntropyTest, IsolatedReplicaCatchesUpAfterHeal) {
  constexpr FileId kFile = 9;
  ShardedCluster cluster(ae_config(555, /*anti_entropy=*/true));
  cluster.ensure_open(kFile);
  const std::vector<NodeId> group = cluster.group_of(kFile);
  ASSERT_EQ(group.size(), 3u);

  // Cut rank 1's endpoint off from both other members (pairwise
  // partitions, both directions) — the triangle route through rank 2
  // must not be able to warm it either.
  cluster.transport().partition(group[1], group[0]);
  cluster.transport().partition(group[1], group[2]);
  ASSERT_TRUE(cluster.transport().partitioned(group[0], group[1]));

  client::ClientSession session(cluster, {});
  for (int i = 0; i < 12; ++i) {
    cluster.sim().schedule_at(msec(300) * (i + 1), [&session, i, kFile] {
      ASSERT_TRUE(session.put(kFile, "p" + std::to_string(i), 0.5).ok());
    });
  }
  cluster.run_until(sec(5));
  core::IdeaNode* isolated = cluster.replica_at_rank(kFile, 1);
  EXPECT_EQ(isolated->store().update_count(), 0u)
      << "partition leaked messages to the isolated replica";
  EXPECT_FALSE(replicas_identical(cluster, kFile));

  cluster.transport().heal_all_partitions();
  const int periods = periods_to_convergence(cluster, kFile, 1, 5);
  ASSERT_NE(periods, -1) << "isolated replica never caught up";
  EXPECT_LE(periods, 4);
  EXPECT_EQ(isolated->store().update_count(), 12u);
  EXPECT_GT(cluster.sync_agent(kFile, 1)->stats().repair_updates_applied,
            0u);
}

struct Totals {
  std::uint64_t rounds = 0;
  std::uint64_t digests = 0;
  std::uint64_t repairs = 0;
  std::uint64_t repair_updates = 0;
};

/// Sums over the file's live ranks.
Totals ae_totals(ShardedCluster& cluster, FileId file) {
  Totals t;
  for (std::uint32_t rank = 0; rank < 3; ++rank) {
    const ReplicaSyncAgent* agent = cluster.sync_agent(file, rank);
    if (agent == nullptr) continue;
    const ReplicaSyncStats& s = agent->stats();
    t.rounds += s.ae_rounds;
    t.digests += s.digests_received;
    t.repairs += s.repairs_sent;
    t.repair_updates += s.repair_updates_sent;
  }
  return t;
}

bool all_matched(ShardedCluster& cluster, FileId file) {
  for (std::uint32_t rank = 0; rank < 3; ++rank) {
    const ReplicaSyncAgent* agent = cluster.sync_agent(file, rank);
    if (agent != nullptr && agent->anti_entropy_running()) return false;
  }
  return true;
}

std::uint64_t digests_on_wire(ShardedCluster& cluster) {
  return cluster.batching()->counters().messages_of("shard.digest");
}

TEST(AntiEntropyTest, DigestRepairFlowAndStats) {
  constexpr FileId kFile = 5;
  ShardedCluster cluster(ae_config(4207, /*anti_entropy=*/true));
  cluster.ensure_open(kFile);
  // Placement runs no round: every store is empty, so every rank starts
  // matched with every peer.
  EXPECT_TRUE(all_matched(cluster, kFile));
  cluster.run_for(sec(3));
  EXPECT_EQ(digests_on_wire(cluster), 0u);

  // With acks off the coordinator never learns that its pushes landed,
  // so one put costs exactly k - 1 = 2 digests, both sent by the
  // coordinator in one round; the followers only answer.
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "hello", 1.0).ok());
  cluster.run_for(sec(3));
  const ReplicaSyncStats& coord = cluster.sync_agent(kFile, 0)->stats();
  const Totals t = ae_totals(cluster, kFile);
  EXPECT_EQ(coord.ae_rounds, 1u);
  EXPECT_EQ(t.rounds, coord.ae_rounds);  // the followers ran none
  EXPECT_EQ(t.digests, 2u);
  EXPECT_EQ(digests_on_wire(cluster), t.digests);
  EXPECT_EQ(t.repairs, t.digests);  // each answered once, no push-back
  EXPECT_TRUE(all_matched(cluster, kFile));
  EXPECT_TRUE(replicas_identical(cluster, kFile));
  EXPECT_EQ(cluster.batching()->counters().messages_of("shard.repair"),
            t.repairs);

  // A quiet group sends nothing.
  cluster.run_for(sec(5));
  EXPECT_EQ(digests_on_wire(cluster), t.digests);
  EXPECT_EQ(ae_totals(cluster, kFile).rounds, t.rounds);

  // A second put costs the same one round again.
  ASSERT_TRUE(session.put(kFile, "again", 1.0).ok());
  EXPECT_TRUE(cluster.sync_agent(kFile, 0)->anti_entropy_running());
  cluster.run_for(sec(3));
  const Totals again = ae_totals(cluster, kFile);
  EXPECT_EQ(again.rounds, 2 * t.rounds);
  EXPECT_EQ(again.digests, 2 * t.digests);
  EXPECT_EQ(again.repairs, again.digests);
  EXPECT_TRUE(all_matched(cluster, kFile));
  EXPECT_TRUE(replicas_identical(cluster, kFile));

  // Stopped means stopped: a later write does not re-arm rank 0's rounds,
  // and the followers, which only answer, run none of their own.  The
  // group sends no digest; the loss-free push alone keeps it whole.
  ReplicaSyncAgent* agent = cluster.sync_agent(kFile, 0);
  agent->stop_anti_entropy();
  const std::uint64_t digests = digests_on_wire(cluster);
  ASSERT_TRUE(session.put(kFile, "after stop", 1.0).ok());
  EXPECT_FALSE(agent->anti_entropy_running());
  cluster.run_for(sec(3));
  EXPECT_EQ(ae_totals(cluster, kFile).rounds, again.rounds);
  EXPECT_EQ(digests_on_wire(cluster), digests);
  EXPECT_TRUE(replicas_identical(cluster, kFile));
}

/// ae_config with replication acks on: every push is tracked until each
/// peer acks it, and re-sent after 300 ms.
ShardedClusterConfig acked_config(std::uint64_t seed) {
  ShardedClusterConfig cfg = ae_config(seed, /*anti_entropy=*/true);
  cfg.replication_resend_timeout = msec(300);
  return cfg;
}

TEST(AntiEntropyTest, AnAckedPutSendsNoDigestAndRefreshesTheHints) {
  // With acks on, each ack's counts match the coordinator with the
  // receiver: nothing is left for a round.  The acks' counts feed each
  // follower's freshness hint.
  constexpr FileId kFile = 5;
  ShardedCluster cluster(acked_config(4207));
  cluster.ensure_open(kFile);
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "hello", 1.0).ok());
  ASSERT_TRUE(session.put(kFile, "again", 1.0).ok());
  cluster.run_for(sec(3));

  EXPECT_EQ(digests_on_wire(cluster), 0u);
  EXPECT_EQ(ae_totals(cluster, kFile).rounds, 0u);
  EXPECT_TRUE(all_matched(cluster, kFile));
  EXPECT_TRUE(replicas_identical(cluster, kFile));
  const FileGroup* g = cluster.group(kFile);
  const std::uint64_t count =
      g->ranks[0].node->store().evv().counts().total();
  EXPECT_EQ(count, 2u);
  for (std::uint32_t rank = 1; rank < 3; ++rank) {
    EXPECT_TRUE(g->ranks[rank].hint.known) << "rank " << rank;
    EXPECT_EQ(g->ranks[rank].hint.versions, count) << "rank " << rank;
  }
}

TEST(AntiEntropyTest, WithoutAntiEntropyAcksCarryNoCounts) {
  // An ack has one body.  An agent that runs no anti-entropy sends it
  // with empty counts, which the pusher reads as none carried: the acks
  // leave the followers' freshness hints unknown.
  constexpr FileId kFile = 5;
  ShardedClusterConfig cfg = acked_config(4207);
  cfg.anti_entropy_period = 0;
  ShardedCluster cluster(cfg);
  cluster.ensure_open(kFile);
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "hello", 1.0).ok());
  cluster.run_for(sec(3));

  EXPECT_EQ(cluster.sync_agent(kFile, 0)->stats().acks_received, 2u);
  EXPECT_TRUE(replicas_identical(cluster, kFile));
  const FileGroup* g = cluster.group(kFile);
  for (std::uint32_t rank = 1; rank < 3; ++rank) {
    EXPECT_FALSE(g->ranks[rank].hint.known) << "rank " << rank;
  }
}

TEST(AntiEntropyTest, APutInFlightAtTheRoundIsNotDigested) {
  // The put goes out 5 ms before a grid point, so its pushes and acks are
  // still in flight when the coordinator's round would fire.  Both
  // followers owe the coordinator an ack, so no round digests them and
  // the timer stops at once; the acks' counts then match both pairs.
  constexpr FileId kFile = 5;
  ShardedCluster cluster(acked_config(4207));
  const SimTime origin = cluster.sim().now();
  cluster.ensure_open(kFile);
  client::ClientSession session(cluster, {});
  cluster.run_until(origin + 2 * kAePeriod - msec(5));
  ASSERT_TRUE(session.put(kFile, "in flight", 1.0).ok());
  const ReplicaSyncAgent* coord = cluster.sync_agent(kFile, 0);
  EXPECT_FALSE(coord->anti_entropy_running());
  cluster.run_until(origin + 2 * kAePeriod + msec(1));
  ASSERT_EQ(coord->stats().acks_received, 0u) << "an ack beat the round";

  cluster.run_for(sec(3));
  EXPECT_EQ(coord->stats().acks_received, 2u);
  EXPECT_EQ(ae_totals(cluster, kFile).rounds, 0u);
  EXPECT_EQ(digests_on_wire(cluster), 0u);
  EXPECT_EQ(cluster.batching()->counters().messages_of("shard.repair"), 0u);
  EXPECT_TRUE(all_matched(cluster, kFile));
  EXPECT_TRUE(replicas_identical(cluster, kFile));
}

TEST(AntiEntropyTest, NoDigestGoesIntoALossWindow) {
  // Twelve puts, 100 ms apart, inside a 1.2 s full-loss window: every
  // push and re-send in it is lost, and both followers owe the
  // coordinator acks throughout, so no round digests them into the
  // window.  The first re-send after the window carries every update a
  // follower lacks, and its ack matches the pair: the whole episode sends
  // no digest.
  constexpr FileId kFile = 5;
  constexpr SimDuration kWindow = msec(1200);
  constexpr int kPuts = 12;
  ShardedClusterConfig cfg = acked_config(4207);
  cfg.replication_max_resends = 6;  // no update gives up inside the window
  ShardedCluster cluster(cfg);
  cluster.ensure_open(kFile);
  cluster.run_for(sec(1));
  const SimTime start = cluster.sim().now();
  cluster.transport().add_drop_window(start, start + kWindow);
  client::ClientSession session(cluster, {});
  for (int i = 0; i < kPuts; ++i) {
    cluster.sim().schedule_at(start + msec(100) * i, [&session, i] {
      ASSERT_TRUE(session.put(kFile, "p" + std::to_string(i), 1.0).ok());
    });
  }
  cluster.run_until(start + kWindow);
  const ReplicaSyncAgent* coord = cluster.sync_agent(kFile, 0);
  ASSERT_EQ(cluster.replica_at_rank(kFile, 1)->store().update_count(), 0u)
      << "the window let a push through";
  EXPECT_EQ(digests_on_wire(cluster), 0u);
  EXPECT_EQ(coord->stats().ae_rounds, 0u);

  cluster.run_for(sec(3));
  EXPECT_EQ(coord->stats().resend_gaveups, 0u);
  EXPECT_EQ(digests_on_wire(cluster), 0u);
  EXPECT_EQ(ae_totals(cluster, kFile).rounds, 0u);
  for (std::uint32_t rank = 1; rank < 3; ++rank) {
    EXPECT_EQ(cluster.replica_at_rank(kFile, rank)->store().update_count(),
              static_cast<std::size_t>(kPuts))
        << "rank " << rank;
  }
  EXPECT_TRUE(all_matched(cluster, kFile));
  EXPECT_TRUE(replicas_identical(cluster, kFile));
}

TEST(AntiEntropyTest, AShortAckHandsThePairToTheNextRound) {
  // Rank 1 is cut off from the coordinator while one update's re-sends
  // run out, so it lacks that update for good.  It misses the next put's
  // push too, which rank 2 acks at once; the cut heals before that put's
  // first re-send, which rank 1 parks behind the gap and acks with short
  // counts.  That ack pays rank 1's last owed one but leaves the pair
  // unmatched, so the coordinator's next grid round digests rank 1.
  constexpr FileId kFile = 5;
  ShardedCluster cluster(acked_config(4207));
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "seen by all", 1.0).ok());
  cluster.run_for(sec(3));
  ASSERT_TRUE(all_matched(cluster, kFile));

  net::SimTransport& wire = cluster.transport();
  const ReplicaSyncAgent* coord = cluster.sync_agent(kFile, 0);
  wire.partition(m[0], m[1]);
  ASSERT_TRUE(session.put(kFile, "lost to rank 1", 1.0).ok());
  cluster.run_for(sec(2));
  ASSERT_EQ(coord->stats().resend_gaveups, 1u);
  ASSERT_EQ(coord->stats().acks_received, 3u);

  ASSERT_TRUE(session.put(kFile, "parked by rank 1", 1.0).ok());
  EXPECT_FALSE(coord->anti_entropy_running()) << "both followers owe acks";
  cluster.run_for(msec(100));
  ASSERT_EQ(coord->stats().acks_received, 4u) << "rank 2 has not acked";
  wire.heal(m[0], m[1]);
  ASSERT_TRUE(step_until(cluster, sec(1), [&] {
    return coord->stats().acks_received == 5;
  }));
  ASSERT_EQ(cluster.replica_at_rank(kFile, 1)->store().update_count(), 1u)
      << "rank 1's ack was not short";
  EXPECT_TRUE(coord->anti_entropy_running()) << "the ack did not hand it back";
  const std::uint64_t rounds = coord->stats().ae_rounds;
  EXPECT_NE(periods_to_convergence(cluster, kFile, 1, 1), -1);
  EXPECT_EQ(coord->stats().ae_rounds, rounds + 1);
  cluster.run_for(sec(3));
  EXPECT_TRUE(all_matched(cluster, kFile));
  // Rank 1 counts each update it holds as applied once: the parked one
  // when the repair that fills the gap releases it.
  const ReplicaSyncStats& healed = cluster.sync_agent(kFile, 1)->stats();
  EXPECT_EQ(healed.applied + healed.repair_updates_applied, 3u);
}

TEST(AntiEntropyTest, APushParkedBehindAnOwedOneIsLeftToTheReSend) {
  // Rank 1 misses one push and parks the next behind it.  Its ack for the
  // parked push, which lands before a grid point, shows it two updates
  // short; but it still owes the missed one, and it holds the one it
  // names, parked.  The missed update's re-send brings both, so no round
  // digests rank 1, and the re-send's ack matches the pair.
  constexpr FileId kFile = 5;
  ShardedCluster cluster(acked_config(4207));
  const SimTime origin = cluster.sim().now();
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "seen by all", 1.0).ok());
  cluster.run_until(origin + 4 * kAePeriod - msec(200));
  net::SimTransport& wire = cluster.transport();
  wire.partition(m[0], m[1]);
  ASSERT_TRUE(session.put(kFile, "missed by rank 1", 1.0).ok());
  cluster.run_for(msec(10));
  wire.heal(m[0], m[1]);
  ASSERT_TRUE(session.put(kFile, "parked by rank 1", 1.0).ok());
  const ReplicaSyncAgent* coord = cluster.sync_agent(kFile, 0);
  ASSERT_TRUE(step_until(cluster, msec(180), [&] {
    return coord->stats().acks_received == 5;
  })) << "rank 1's ack did not beat the grid point";
  ASSERT_EQ(cluster.replica_at_rank(kFile, 1)->store().update_count(), 1u);

  cluster.run_for(sec(3));
  EXPECT_EQ(coord->stats().resend_gaveups, 0u);
  EXPECT_EQ(digests_on_wire(cluster), 0u);
  EXPECT_TRUE(all_matched(cluster, kFile));
  EXPECT_TRUE(replicas_identical(cluster, kFile));
}

TEST(AntiEntropyTest, ARankBehindIsDigestedWhileItOwesAcks) {
  // Rank 1 lacks an update whose re-sends gave up while it was cut off.
  // The file then takes a put every 50 ms, so rank 1 keeps owing the
  // coordinator acks; but each ack shows it lacking more than the pushes
  // in flight will bring it, so the rounds still digest it, and it holds
  // the lost update within two periods of the heal while the puts go on.
  // In the second run the lost update is the file's first, so rank 1
  // holds nothing and parks every push: its acks carry no counts, which
  // read as all zero.
  constexpr FileId kFile = 5;
  constexpr int kPuts = 60;
  for (const bool seen_first : {true, false}) {
    SCOPED_TRACE(seen_first ? "rank 1 holds the first update"
                            : "rank 1 holds nothing");
    ShardedCluster cluster(acked_config(4207));
    const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
    client::ClientSession session(cluster, {});
    if (seen_first) {
      ASSERT_TRUE(session.put(kFile, "seen by all", 1.0).ok());
      cluster.run_for(sec(3));
    }
    net::SimTransport& wire = cluster.transport();
    wire.partition(m[0], m[1]);
    ASSERT_TRUE(session.put(kFile, "lost to rank 1", 1.0).ok());
    cluster.run_for(sec(2));
    ASSERT_EQ(cluster.sync_agent(kFile, 0)->stats().resend_gaveups, 1u);

    wire.heal(m[0], m[1]);
    const SimTime healed = cluster.sim().now();
    for (int i = 0; i < kPuts; ++i) {
      cluster.sim().schedule_at(healed + msec(50) * i, [&session, i] {
        ASSERT_TRUE(session.put(kFile, "hot" + std::to_string(i), 1.0).ok());
      });
    }
    // Rank 1 applies the coordinator's updates in seq order and parks any
    // past a gap, so it holds the lost one once it holds one more.
    const std::uint64_t lost = seen_first ? 2 : 1;
    const replica::ReplicaStore& cold =
        cluster.replica_at_rank(kFile, 1)->store();
    EXPECT_TRUE(step_until(cluster, 2 * kAePeriod, [&] {
      return cold.evv().counts().total() > lost;
    })) << "rank 1 still lacks the lost update";
    cluster.run_for(sec(5));
    EXPECT_EQ(cold.update_count(), kPuts + lost);
    EXPECT_TRUE(all_matched(cluster, kFile));
    EXPECT_TRUE(replicas_identical(cluster, kFile));
  }
}

TEST(AntiEntropyTest, ARestartedFollowerOfAHotFileHealsWithinTwoPeriods) {
  // No checkpoints, and a put every 50 ms before, during and after rank
  // 1's downtime.  The restarted follower reloads nothing, so every push
  // it gets parks behind what it lost and its acks carry no counts.  It
  // keeps owing the coordinator acks, yet those acks show it lacking more
  // than the pushes in flight will bring it, so the coordinator's rounds
  // digest it: it holds what the coordinator held at the restart within
  // two periods, while the puts go on.
  constexpr FileId kFile = 5;
  constexpr int kPuts = 100;
  ShardedCluster cluster(acked_config(4207));
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  client::ClientSession session(cluster, {});
  const SimTime start = cluster.sim().now();
  for (int i = 0; i < kPuts; ++i) {
    cluster.sim().schedule_at(start + msec(50) * i, [&session, i] {
      ASSERT_TRUE(session.put(kFile, "hot" + std::to_string(i), 1.0).ok());
    });
  }
  cluster.run_for(sec(1));
  cluster.crash_endpoint(m[1]);
  cluster.run_for(sec(1));
  const RecoveryReport rec = cluster.restart_endpoint(m[1]);
  ASSERT_EQ(rec.files_recovered, 1u);
  ASSERT_EQ(rec.checkpoint_files, 0u);
  const std::uint64_t held =
      cluster.replica_at_rank(kFile, 0)->store().evv().counts().total();
  ASSERT_GT(held, 30u);
  const replica::ReplicaStore& cold =
      cluster.replica_at_rank(kFile, 1)->store();
  EXPECT_TRUE(step_until(cluster, 2 * kAePeriod, [&] {
    return cold.evv().counts().total() >= held;
  })) << "rank 1 holds " << cold.evv().counts().total() << " of " << held;
  cluster.run_for(sec(5));
  EXPECT_EQ(cold.update_count(), static_cast<std::size_t>(kPuts));
  EXPECT_TRUE(all_matched(cluster, kFile));
  EXPECT_TRUE(replicas_identical(cluster, kFile));
}

TEST(AntiEntropyTest, AGiveUpResumesTheRounds) {
  // Rank 1 is cut off for good.  Once the put's re-sends run out, rank 1
  // owes no ack, so the coordinator's rounds digest it every period again.
  constexpr FileId kFile = 5;
  ShardedCluster cluster(acked_config(4207));
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  client::ClientSession session(cluster, {});
  cluster.transport().partition(m[0], m[1]);
  ASSERT_TRUE(session.put(kFile, "lost to rank 1", 1.0).ok());
  const ReplicaSyncAgent* coord = cluster.sync_agent(kFile, 0);
  ASSERT_TRUE(step_until(cluster, sec(3), [&] {
    return coord->stats().resend_gaveups == 1;
  }));
  EXPECT_TRUE(coord->anti_entropy_running());
  const std::uint64_t rounds = coord->stats().ae_rounds;
  const std::uint64_t digests = digests_on_wire(cluster);
  cluster.run_for(4 * kAePeriod);
  EXPECT_EQ(coord->stats().ae_rounds, rounds + 4);
  EXPECT_EQ(digests_on_wire(cluster), digests + 4);
  EXPECT_EQ(cluster.replica_at_rank(kFile, 1)->store().update_count(), 0u);
}

TEST(AntiEntropyTest, StartingAntiEntropyCountsTheAcksPeersOwe) {
  // Anti-entropy starts while a put is still tracked: inside a loss
  // window, both followers owe the coordinator its ack, so no round
  // digests them, and the re-send that lands after the window settles
  // both pairs.
  constexpr FileId kFile = 5;
  ShardedCluster cluster(acked_config(4207));
  cluster.ensure_open(kFile);
  ReplicaSyncAgent* coord = cluster.sync_agent(kFile, 0);
  coord->stop_anti_entropy();
  cluster.run_for(sec(1));
  const SimTime start = cluster.sim().now();
  cluster.transport().add_drop_window(start, start + msec(400));
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "tracked", 1.0).ok());
  cluster.run_for(msec(100));
  coord->start_anti_entropy(kAePeriod);
  EXPECT_FALSE(coord->anti_entropy_running());

  cluster.run_for(sec(3));
  EXPECT_EQ(coord->stats().resend_gaveups, 0u);
  EXPECT_EQ(coord->stats().acks_received, 2u);
  EXPECT_EQ(digests_on_wire(cluster), 0u);
  EXPECT_TRUE(all_matched(cluster, kFile));
  EXPECT_TRUE(replicas_identical(cluster, kFile));
}

TEST(AntiEntropyTest, ALostPushBackLeavesThePairUnmatched) {
  // Rank 1 misses a put while cut off from both peers and stays cut off
  // from rank 2, so only rank 0's rounds can heal it.  Rank 0's push-back
  // to rank 1 is then lost in flight: an exchange that needed a push-back
  // must not match the pair, so rank 0's next round retries.
  constexpr FileId kFile = 4;
  ShardedClusterConfig cfg = ae_config(31, /*anti_entropy=*/true);
  cfg.batching = false;  // every send reaches the wire at once
  ShardedCluster cluster(cfg);
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  ASSERT_EQ(m.size(), 3u);
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "seen by all", 1.0).ok());
  cluster.run_for(sec(3));
  ASSERT_TRUE(replicas_identical(cluster, kFile));

  net::SimTransport& wire = cluster.transport();
  wire.partition(m[1], m[0]);
  wire.partition(m[1], m[2]);
  ASSERT_TRUE(session.put(kFile, "missed by rank 1", 1.0).ok());
  cluster.run_for(sec(2));
  wire.heal(m[1], m[0]);

  // Step to the instant rank 1 answers rank 0's digest, then cut the pair
  // again: the answer is already on the wire, rank 0's push-back is not.
  ReplicaSyncAgent* coord = cluster.sync_agent(kFile, 0);
  const ReplicaSyncStats& cold = cluster.sync_agent(kFile, 1)->stats();
  const std::uint64_t answered = cold.repairs_sent;
  ASSERT_TRUE(step_until(cluster, sec(5),
                         [&] { return cold.repairs_sent != answered; }));
  wire.partition(m[1], m[0]);
  const std::uint64_t pushed_back = coord->stats().repairs_sent;
  ASSERT_TRUE(step_until(cluster, sec(5), [&] {
    return coord->stats().repairs_sent != pushed_back;
  }));
  wire.heal(m[1], m[0]);
  ASSERT_FALSE(replicas_identical(cluster, kFile));
  EXPECT_TRUE(coord->anti_entropy_running());

  cluster.run_for(sec(3));
  EXPECT_EQ(cluster.replica_at_rank(kFile, 1)->store().update_count(), 2u);
}

/// One message delivered on the edge transport (global endpoint ids).
struct SeenMessage {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  std::uint32_t bytes = 0;
};

/// Stands in for an endpoint on the edge transport: records every message
/// of one type delivered to it, then hands the message on.
class Recorder final : public net::MessageHandler {
 public:
  Recorder(net::MsgType type, net::MessageHandler& target,
           std::vector<SeenMessage>& seen)
      : type_(type), target_(target), seen_(seen) {}

  void on_message(const net::Message& msg) override {
    if (msg.type == type_) seen_.push_back({msg.from, msg.to, msg.wire_bytes});
    target_.on_message(msg);
  }

 private:
  net::MsgType type_;
  net::MessageHandler& target_;
  std::vector<SeenMessage>& seen_;
};

/// Route every live endpoint's edge deliveries through a Recorder of
/// `type`.  A restart attaches its endpoint's new service instead.
std::vector<std::unique_ptr<Recorder>> record(
    ShardedCluster& cluster, std::vector<SeenMessage>& seen,
    net::MsgType type = ReplicaSyncAgent::kDigestType) {
  std::vector<std::unique_ptr<Recorder>> recorders;
  for (const NodeId e : cluster.endpoints()) {
    recorders.push_back(
        std::make_unique<Recorder>(type, cluster.service(e), seen));
    cluster.edge().attach(e, recorders.back().get());
  }
  return recorders;
}

TEST(AntiEntropyTest, DigestSizeDoesNotGrowWithTheLog) {
  // A digest carries per-writer counts, so with one writer it costs the
  // same whether the log holds 1 update or 50.
  constexpr FileId kFile = 6;
  std::vector<SeenMessage> seen;
  ShardedCluster cluster(ae_config(77, /*anti_entropy=*/true));
  cluster.ensure_open(kFile);
  const auto recorders = record(cluster, seen);
  client::ClientSession session(cluster, {});

  ASSERT_TRUE(session.put(kFile, "p1", 1.0).ok());
  cluster.run_for(sec(3));
  ASSERT_FALSE(seen.empty());
  const std::vector<SeenMessage> after_one = seen;

  seen.clear();
  for (int i = 2; i <= 50; ++i) {
    ASSERT_TRUE(session.put(kFile, "p" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(sec(3));
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(cluster.replica_at_rank(kFile, 0)->store().update_count(), 50u);
  EXPECT_TRUE(replicas_identical(cluster, kFile));

  // Every digest after either batch: a 16-byte header plus 12 bytes for
  // the one writer.
  for (const SeenMessage& d : after_one) EXPECT_EQ(d.bytes, 28u);
  for (const SeenMessage& d : seen) EXPECT_EQ(d.bytes, 28u);
}

TEST(AntiEntropyTest, ANonCoordinatorDigestsOnlyTheCoordinator) {
  // Each follower in turn misses three puts that the other holds, so the
  // followers differ from each other while one of them is healed.  Rounds
  // still run only on the coordinator: no digest passes between the
  // followers, and neither follower runs a round at all.
  constexpr FileId kFile = 9;
  std::vector<SeenMessage> seen;
  ShardedCluster cluster(ae_config(555, /*anti_entropy=*/true));
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  ASSERT_EQ(m.size(), 3u);
  const auto recorders = record(cluster, seen);
  client::ClientSession session(cluster, {});
  net::SimTransport& wire = cluster.transport();
  int n = 0;
  for (const NodeId cut : {m[1], m[2]}) {
    wire.partition(m[0], cut);
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(session.put(kFile, "p" + std::to_string(n++), 1.0).ok());
    }
    cluster.run_for(msec(300));
    wire.heal(m[0], cut);
    cluster.run_for(sec(3));
    ASSERT_TRUE(replicas_identical(cluster, kFile));
  }

  std::size_t from_followers = 0;
  for (const SeenMessage& d : seen) {
    EXPECT_TRUE(d.from == m[0] || d.to == m[0])
        << "digest " << d.from << " -> " << d.to;
    if (d.from != m[0]) ++from_followers;
  }
  EXPECT_GT(seen.size(), 0u);
  EXPECT_EQ(from_followers, 0u);
  for (std::uint32_t rank = 1; rank < 3; ++rank) {
    EXPECT_EQ(cluster.sync_agent(kFile, rank)->stats().ae_rounds, 0u)
        << "rank " << rank;
  }
  EXPECT_TRUE(all_matched(cluster, kFile));
}

TEST(AntiEntropyTest, AfterTheCoordinatorCrashesTheSurvivorsExchange) {
  // A settled group sends nothing.  When rank 0 crashes, rank 1 acts and
  // forgets its matches: within one period it digests rank 2, with no
  // write to prompt it, and rank 2 only answers.  The dark rank 0 is
  // digested by no one, so once the survivors match the group is quiet
  // again, and a put while rank 0 is down costs one round.
  constexpr FileId kFile = 5;
  std::vector<SeenMessage> seen;
  ShardedCluster cluster(ae_config(4207, /*anti_entropy=*/true));
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "hello", 1.0).ok());
  cluster.run_for(sec(3));
  ASSERT_TRUE(all_matched(cluster, kFile));

  const auto recorders = record(cluster, seen);
  cluster.crash_endpoint(m[0]);
  ASSERT_EQ(cluster.coordinator(kFile).second, m[1]);
  EXPECT_TRUE(cluster.sync_agent(kFile, 1)->anti_entropy_running());
  EXPECT_FALSE(cluster.sync_agent(kFile, 2)->anti_entropy_running());
  const Totals t = ae_totals(cluster, kFile);
  cluster.run_for(kAePeriod);
  EXPECT_EQ(cluster.sync_agent(kFile, 1)->stats().ae_rounds, 1u);
  EXPECT_EQ(cluster.sync_agent(kFile, 2)->stats().ae_rounds, 0u);
  cluster.run_for(msec(400));  // the digest in flight lands
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].from, m[1]);
  EXPECT_EQ(seen[0].to, m[2]);
  EXPECT_EQ(ae_totals(cluster, kFile).repairs, t.repairs + 1);
  EXPECT_TRUE(cluster.converged(kFile));

  cluster.run_for(sec(2));
  ASSERT_TRUE(all_matched(cluster, kFile));
  const std::uint64_t settled = digests_on_wire(cluster);
  cluster.run_for(sec(5));
  EXPECT_EQ(digests_on_wire(cluster), settled);

  ASSERT_TRUE(session.put(kFile, "while rank 0 is down", 1.0).ok());
  const std::uint64_t rounds = ae_totals(cluster, kFile).rounds;
  cluster.run_for(sec(5));
  EXPECT_EQ(ae_totals(cluster, kFile).rounds, rounds + 1);
  EXPECT_EQ(digests_on_wire(cluster), settled + 1);
  EXPECT_TRUE(all_matched(cluster, kFile));
  EXPECT_TRUE(cluster.converged(kFile));
}

TEST(AntiEntropyTest, ACoordinatorCrashCostsOneDigestPerLiveFollower) {
  // k = 4.  Follower rank 3 crashes first, then the coordinator: rank 1
  // acts and sends exactly one digest to each live follower (rank 2
  // only), and the exchange, which shows equal counts, settles the group.
  // Nothing is addressed to the dark ranks.
  constexpr FileId kFile = 5;
  ShardedClusterConfig cfg = ae_config(4207, /*anti_entropy=*/true);
  cfg.replication = 4;
  ShardedCluster cluster(cfg);
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  ASSERT_EQ(m.size(), 4u);
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "hello", 1.0).ok());
  cluster.run_for(sec(3));
  ASSERT_TRUE(all_matched(cluster, kFile));

  std::vector<SeenMessage> seen;
  const auto recorders = record(cluster, seen);
  const std::uint64_t settled = digests_on_wire(cluster);
  cluster.crash_endpoint(m[3]);
  cluster.run_for(sec(1));
  EXPECT_TRUE(seen.empty()) << "a follower's crash started a round";
  cluster.crash_endpoint(m[0]);
  const std::uint64_t dropped = cluster.transport().fault_dropped();
  cluster.run_for(sec(3));
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(seen[0].from, m[1]);
  EXPECT_EQ(seen[0].to, m[2]);
  EXPECT_EQ(digests_on_wire(cluster), settled + 1);
  EXPECT_EQ(cluster.transport().fault_dropped(), dropped);
  EXPECT_EQ(cluster.sync_agent(kFile, 1)->stats().ae_rounds, 1u);
  EXPECT_EQ(cluster.sync_agent(kFile, 2)->stats().ae_rounds, 0u);
  EXPECT_TRUE(all_matched(cluster, kFile));
  EXPECT_TRUE(cluster.converged(kFile));
}

/// The acting coordinator's Strong read returns an update whose content
/// is `content`.
bool strong_read_sees(ShardedCluster& cluster, client::ClientSession& session,
                      FileId file, const std::string& content) {
  const auto read = session.read(file);
  if (!read.ok() || read->served_by != cluster.coordinator(file).second) {
    return false;
  }
  return std::any_of(
      read->updates->begin(), read->updates->end(),
      [&](const replica::Update& u) { return u.content == content; });
}

TEST(AntiEntropyTest, ANewCoordinatorLearnsAFollowersUpdateWhileWritesGoOn) {
  // Acks on.  Rank 0's last put reaches rank 2 alone, and rank 0
  // crashes.  Rank 1 acts and takes a put every 20 ms, so rank 2 always
  // owes it an ack; but rank 2's acks show it holding an update rank 1
  // lacks, so rank 1's rounds digest it anyway, and rank 1 holds the
  // update, and serves it to a Strong read, within two periods while the
  // puts go on.
  constexpr FileId kFile = 5;
  constexpr int kPuts = 150;
  ShardedCluster cluster(acked_config(4207));
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "seen by all", 1.0).ok());
  cluster.run_for(sec(3));
  cluster.transport().partition(m[0], m[1]);
  ASSERT_TRUE(session.put(kFile, "only rank 2", 1.0).ok());
  cluster.run_for(msec(100));
  ASSERT_EQ(cluster.replica_at_rank(kFile, 2)->store().update_count(), 2u);
  cluster.crash_endpoint(m[0]);
  cluster.transport().heal(m[0], m[1]);
  ASSERT_EQ(cluster.coordinator(kFile).second, m[1]);
  const replica::ReplicaStore& acting =
      cluster.replica_at_rank(kFile, 1)->store();
  ASSERT_EQ(acting.evv().counts().get(0), 1u);

  const SimTime start = cluster.sim().now();
  for (int i = 0; i < kPuts; ++i) {
    cluster.sim().schedule_at(start + msec(20) * i, [&session, i] {
      ASSERT_TRUE(session.put(kFile, "hot" + std::to_string(i), 1.0).ok());
    });
  }
  EXPECT_TRUE(step_until(cluster, 2 * kAePeriod, [&] {
    return acting.evv().counts().get(0) == 2;
  })) << "rank 1 still lacks the update only rank 2 held";
  EXPECT_LT(cluster.sim().now(), start + msec(20) * (kPuts - 1))
      << "the puts stopped first";
  EXPECT_TRUE(strong_read_sees(cluster, session, kFile, "only rank 2"));
  EXPECT_EQ(cluster.sync_agent(kFile, 2)->stats().ae_rounds, 0u);

  cluster.run_for(sec(5));
  EXPECT_TRUE(all_matched(cluster, kFile));
  EXPECT_TRUE(cluster.converged(kFile));
}

TEST(AntiEntropyTest, PlacementWhileRankZeroIsDownRunsNoRound) {
  // Rank 0's member is down when the file is placed, so rank 1 acts from
  // the start.  Its agent's first star is no change: every store is
  // empty, so it keeps the matches it started with and sends no digest.
  constexpr FileId kFile = 5;
  ShardedCluster cluster(ae_config(4207, /*anti_entropy=*/true));
  const std::vector<NodeId> m = cluster.group_of(kFile);
  ASSERT_EQ(m.size(), 3u);
  cluster.crash_endpoint(m[0]);
  cluster.ensure_open(kFile);
  ASSERT_EQ(cluster.coordinator(kFile).second, m[1]);
  EXPECT_TRUE(all_matched(cluster, kFile));
  cluster.run_for(sec(3));
  EXPECT_EQ(digests_on_wire(cluster), 0u);
  EXPECT_EQ(ae_totals(cluster, kFile).rounds, 0u);
}

TEST(AntiEntropyTest, ARestartedFollowerWithoutACheckpointHealsInOnePeriod) {
  // No checkpoints: the restarted follower reloads nothing, so its store
  // is as empty as at placement and it runs no round of its own.  The
  // restart un-matches it at the coordinator, whose round one period
  // after the restart sends it the whole delta once, and the group is
  // whole by the next period.
  constexpr FileId kFile = 5;
  ShardedCluster cluster(ae_config(4207, /*anti_entropy=*/true));
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  client::ClientSession session(cluster, {});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(session.put(kFile, "p" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(sec(3));
  cluster.crash_endpoint(m[1]);
  cluster.run_for(sec(1));
  const RecoveryReport rec = cluster.restart_endpoint(m[1]);
  ASSERT_EQ(rec.files_recovered, 1u);
  ASSERT_EQ(rec.checkpoint_files, 0u);
  EXPECT_EQ(cluster.replica_at_rank(kFile, 1)->store().update_count(), 0u);
  EXPECT_FALSE(cluster.sync_agent(kFile, 1)->anti_entropy_running());
  EXPECT_TRUE(cluster.sync_agent(kFile, 0)->anti_entropy_running());
  const std::uint64_t sent = ae_totals(cluster, kFile).repair_updates;

  cluster.run_for(kAePeriod);
  EXPECT_EQ(cluster.sync_agent(kFile, 1)->stats().ae_rounds, 0u);
  EXPECT_NE(periods_to_convergence(cluster, kFile, 1, 1), -1);
  EXPECT_EQ(cluster.replica_at_rank(kFile, 1)->store().update_count(), 4u);
  cluster.run_for(sec(3));
  EXPECT_TRUE(all_matched(cluster, kFile));
  // The delta travelled once.
  EXPECT_EQ(ae_totals(cluster, kFile).repair_updates, sent + 4);
}

TEST(AntiEntropyTest, ARestartedFollowerWithACheckpointHealsInOnePeriod) {
  // The checkpointed twin of the test above: the restarted follower
  // reloads the 4 updates its checkpoint holds, so its store mutated
  // after it was built, yet it runs no round: a follower only answers.
  // The coordinator's round one period after the restart finds it 4
  // updates behind: the reply to its digest carries nothing, its
  // push-back carries the 4 updates once, and a second digest matches
  // the pair.
  constexpr FileId kFile = 5;
  ShardedClusterConfig cfg = ae_config(4207, /*anti_entropy=*/true);
  cfg.checkpoint.engine = replica::CheckpointEngineKind::kIncremental;
  cfg.checkpoint.period = sec(1);
  ShardedCluster cluster(cfg);
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  client::ClientSession session(cluster, {});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(session.put(kFile, "p" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(sec(3));
  cluster.crash_endpoint(m[1]);
  for (int i = 4; i < 8; ++i) {
    ASSERT_TRUE(session.put(kFile, "p" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(sec(1));
  const Totals before = ae_totals(cluster, kFile);
  const RecoveryReport rec = cluster.restart_endpoint(m[1]);
  ASSERT_EQ(rec.files_recovered, 1u);
  ASSERT_EQ(rec.checkpoint_files, 1u);
  EXPECT_EQ(rec.checkpoint_updates, 4u);
  EXPECT_EQ(rec.gap_updates, 4u);
  EXPECT_FALSE(cluster.sync_agent(kFile, 1)->anti_entropy_running());
  EXPECT_TRUE(cluster.sync_agent(kFile, 0)->anti_entropy_running());

  cluster.run_for(kAePeriod);
  EXPECT_NE(periods_to_convergence(cluster, kFile, 1, 1), -1);
  EXPECT_EQ(cluster.replica_at_rank(kFile, 1)->store().update_count(), 8u);
  cluster.run_for(sec(3));
  EXPECT_TRUE(all_matched(cluster, kFile));
  EXPECT_EQ(cluster.sync_agent(kFile, 1)->stats().ae_rounds, 0u);
  // Rank 0 and rank 2 survived the crash, so their stats carry on; the
  // restarted rank's start from zero.
  const Totals after = ae_totals(cluster, kFile);
  EXPECT_EQ(after.repair_updates - before.repair_updates, 4u)
      << "the delta travelled more than once";
  EXPECT_EQ(after.digests - before.digests, 2u);
  EXPECT_EQ(after.repairs - before.repairs, 3u);
}

TEST(AntiEntropyTest, ARestartedCoordinatorWithoutACheckpointHealsInOnePeriod) {
  // Rank 0 crashes before the group's first write, so its restart
  // reloads and re-adopts nothing: its store is as empty as at
  // placement.  It returns acting and forgets every match anyway, so one
  // period after the restart its round digests both survivors, which
  // only answer.  Each reply carries the whole delta, after which its
  // counts equal the replier's: one exchange per survivor makes the
  // group whole and settles it.
  constexpr FileId kFile = 5;
  ShardedCluster cluster(ae_config(4207, /*anti_entropy=*/true));
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  cluster.crash_endpoint(m[0]);
  client::ClientSession session(cluster, {});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(session.put(kFile, "p" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(sec(3));
  ASSERT_TRUE(all_matched(cluster, kFile));
  const Totals before = ae_totals(cluster, kFile);
  const RecoveryReport rec = cluster.restart_endpoint(m[0]);
  ASSERT_EQ(rec.files_recovered, 1u);
  ASSERT_EQ(cluster.coordinator(kFile).second, m[0]);
  EXPECT_EQ(cluster.replica_at_rank(kFile, 0)->store().update_count(), 0u);
  EXPECT_TRUE(cluster.sync_agent(kFile, 0)->anti_entropy_running());
  EXPECT_FALSE(cluster.sync_agent(kFile, 1)->anti_entropy_running());
  EXPECT_FALSE(cluster.sync_agent(kFile, 2)->anti_entropy_running());

  cluster.run_for(kAePeriod);
  EXPECT_EQ(cluster.sync_agent(kFile, 0)->stats().ae_rounds, 1u);
  EXPECT_NE(periods_to_convergence(cluster, kFile, 1, 1), -1);
  EXPECT_EQ(cluster.replica_at_rank(kFile, 0)->store().update_count(), 4u);
  cluster.run_for(sec(3));
  EXPECT_TRUE(all_matched(cluster, kFile));
  const Totals after = ae_totals(cluster, kFile);
  EXPECT_EQ(after.rounds - before.rounds, 1u);
  EXPECT_EQ(after.digests - before.digests, 2u);
  EXPECT_EQ(after.repairs - before.repairs, 2u);
  EXPECT_EQ(cluster.sync_agent(kFile, 0)->stats().ae_rounds, 1u);
}

TEST(AntiEntropyTest, ARestartedCoordinatorLearnsWhatItLostWhileWritesGoOn) {
  // Acks on, no checkpoints.  Rank 0 is down while rank 1 coordinates
  // four puts, which give up on the dark rank 0 before it restarts: the
  // restart brings it no push of them, and it re-adopts only its own
  // writer's updates.  It returns acting and takes a put every 20 ms, so
  // both followers always owe it acks; but their acks show them holding
  // updates it lacks, so its rounds digest them anyway, and it holds the
  // four, and serves them to a Strong read, within two periods while the
  // puts go on.
  constexpr FileId kFile = 5;
  constexpr int kPuts = 150;
  ShardedCluster cluster(acked_config(4207));
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  cluster.crash_endpoint(m[0]);
  client::ClientSession session(cluster, {});
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(session.put(kFile, "p" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(sec(3));
  ASSERT_EQ(cluster.sync_agent(kFile, 1)->stats().resend_gaveups, 4u);
  cluster.restart_endpoint(m[0]);
  ASSERT_EQ(cluster.coordinator(kFile).second, m[0]);
  const replica::ReplicaStore& acting =
      cluster.replica_at_rank(kFile, 0)->store();
  ASSERT_EQ(acting.evv().counts().get(1), 0u);

  const SimTime start = cluster.sim().now();
  for (int i = 0; i < kPuts; ++i) {
    cluster.sim().schedule_at(start + msec(20) * i, [&session, i] {
      ASSERT_TRUE(session.put(kFile, "hot" + std::to_string(i), 1.0).ok());
    });
  }
  EXPECT_TRUE(step_until(cluster, 2 * kAePeriod, [&] {
    return acting.evv().counts().get(1) == 4;
  })) << "rank 0 still lacks rank 1's interim writes";
  EXPECT_LT(cluster.sim().now(), start + msec(20) * (kPuts - 1))
      << "the puts stopped first";
  EXPECT_TRUE(strong_read_sees(cluster, session, kFile, "p3"));
  for (std::uint32_t rank = 1; rank < 3; ++rank) {
    EXPECT_EQ(cluster.sync_agent(kFile, rank)->stats().ae_rounds, 0u)
        << "rank " << rank;
  }

  cluster.run_for(sec(5));
  EXPECT_TRUE(all_matched(cluster, kFile));
  EXPECT_TRUE(replicas_identical(cluster, kFile));
}

TEST(AntiEntropyTest, ALossFreeJoinSendsNoDigestOnceItsStreamsLand) {
  // Written, settled files migrate when an endpoint joins.  Each adopter
  // streams its snapshot to the new group's other ranks and asks for an
  // ack with counts, which matches the pair: no round runs.
  constexpr FileId kFiles = 12;
  ShardedCluster cluster(ae_config(4207, /*anti_entropy=*/true));
  cluster.place(1, kFiles);
  client::ClientSession session(cluster, {});
  for (FileId f = 1; f <= kFiles; ++f) {
    ASSERT_TRUE(session.put(f, "before the join", 1.0).ok());
  }
  cluster.run_for(sec(3));
  const std::uint64_t digests = digests_on_wire(cluster);
  const net::MessageCounters& wire = cluster.batching()->counters();
  const std::uint64_t acks = wire.messages_of("shard.ack");

  const MembershipChange change = cluster.add_endpoint();
  ASSERT_GT(change.files_migrated, 0u);
  ASSERT_GT(change.stream_messages, 0u);
  cluster.run_for(sec(3));
  EXPECT_EQ(digests_on_wire(cluster), digests);
  EXPECT_EQ(wire.messages_of("shard.ack") - acks, change.stream_messages);
  for (FileId f = 1; f <= kFiles; ++f) {
    EXPECT_TRUE(all_matched(cluster, f)) << "file " << f;
    EXPECT_TRUE(replicas_identical(cluster, f)) << "file " << f;
  }
}

TEST(AntiEntropyTest, ADarkRankIsSentNothingAndItsRestartGetsOnePush) {
  // Acks on.  Follower rank 1 is down while the coordinator takes two
  // puts: each is pushed to rank 2 alone, and rank 1, still owing both
  // acks, gets no re-send.  Its restart, before either update gives up,
  // sends it one push that carries both, whose ack settles the pair: the
  // whole episode sends no digest and drops nothing at the crash window.
  constexpr FileId kFile = 5;
  ShardedCluster cluster(acked_config(4207));
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  cluster.run_for(sec(1));
  cluster.crash_endpoint(m[1]);
  const net::MessageCounters& wire = cluster.batching()->counters();
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "p0", 1.0).ok());
  ASSERT_TRUE(session.put(kFile, "p1", 1.0).ok());
  cluster.run_for(msec(700));  // two resend timeouts, no give-up
  const ReplicaSyncAgent* coord = cluster.sync_agent(kFile, 0);
  EXPECT_EQ(wire.messages_of("shard.replicate"), 2u);
  EXPECT_EQ(coord->stats().pushed, 2u);
  EXPECT_EQ(coord->stats().resend_gaveups, 0u);

  cluster.restart_endpoint(m[1]);
  cluster.run_for(sec(3));
  EXPECT_EQ(wire.messages_of("shard.replicate"), 3u);
  EXPECT_EQ(cluster.sync_agent(kFile, 1)->stats().applied, 2u);
  EXPECT_EQ(coord->stats().resend_gaveups, 0u);
  EXPECT_EQ(digests_on_wire(cluster), 0u);
  EXPECT_EQ(cluster.transport().fault_dropped(), 0u);
  EXPECT_TRUE(all_matched(cluster, kFile));
  EXPECT_TRUE(replicas_identical(cluster, kFile));
}

TEST(AntiEntropyTest, PushesAndGiveUpDigestsCountOnlyWhatIsSent) {
  // Acks on.  With rank 1 down, a put is pushed to rank 2 alone, which
  // acks it.  Rank 1 stays silent, so the update gives up at its usual
  // time, max_resends + 1 = 3 timeouts after the put, and the give-up
  // digests no one: the dark rank is sent nothing.
  constexpr FileId kFile = 5;
  ShardedCluster cluster(acked_config(4207));
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  cluster.crash_endpoint(m[1]);
  client::ClientSession session(cluster, {});
  const SimTime put_at = cluster.sim().now();
  ASSERT_TRUE(session.put(kFile, "p0", 1.0).ok());
  const ReplicaSyncStats& coord = cluster.sync_agent(kFile, 0)->stats();
  ASSERT_TRUE(step_until(cluster, sec(3),
                         [&] { return coord.resend_gaveups == 1; }));
  EXPECT_EQ(cluster.sim().now() - put_at, 3 * msec(300));
  EXPECT_EQ(coord.pushed, 1u);
  EXPECT_EQ(coord.acks_received, 1u);
  EXPECT_EQ(coord.gaveup_ae_digests, 0u);
  cluster.run_for(sec(3));
  EXPECT_EQ(digests_on_wire(cluster), 0u);
  EXPECT_EQ(cluster.batching()->counters().messages_of("shard.replicate"),
            1u);
  EXPECT_TRUE(cluster.converged(kFile));
}

TEST(AntiEntropyTest, WithAntiEntropyOnAPushCostsItsUpdatesAndAHeader) {
  // A push carries updates only: 16 bytes of header plus each update's
  // bytes, for a put's first push and for a re-send alike.  Rank 1 is cut
  // off for the first two puts, so the first re-send carries both.
  constexpr FileId kFile = 5;
  ShardedCluster cluster(acked_config(4207));
  const std::vector<NodeId> m = cluster.ensure_open(kFile)->members;
  std::vector<SeenMessage> seen;
  const auto recorders =
      record(cluster, seen, ReplicaSyncAgent::kReplicateType);
  client::ClientSession session(cluster, {});
  cluster.transport().partition(m[0], m[1]);
  ASSERT_TRUE(session.put(kFile, "first", 1.0).ok());
  ASSERT_TRUE(session.put(kFile, "second, longer", 1.0).ok());
  cluster.run_for(msec(100));
  cluster.transport().heal(m[0], m[1]);
  cluster.run_for(sec(3));
  ASSERT_TRUE(replicas_identical(cluster, kFile));

  const std::vector<replica::Update> log =
      cluster.replica_at_rank(kFile, 0)->store().export_log();
  ASSERT_EQ(log.size(), 2u);
  const std::uint32_t first = 16 + log[0].wire_bytes();
  const std::uint32_t second = 16 + log[1].wire_bytes();
  ASSERT_EQ(seen.size(), 3u);  // two pushes to rank 2, one re-send
  EXPECT_EQ(seen[0].bytes, first);
  EXPECT_EQ(seen[1].bytes, second);
  EXPECT_EQ(seen[2].to, m[1]);
  EXPECT_EQ(seen[2].bytes, first + second - 16);
}

/// One generated fault schedule over a 6-endpoint, k = 3, 12-file
/// deployment: random puts, random full-loss windows and one pairwise
/// partition, every put and every fault before the last heal.  A churned
/// schedule adds one crash and restart of an endpoint, and one endpoint
/// that joins and leaves again.
struct FaultSchedule {
  struct Put {
    SimTime at = 0;
    FileId file = 0;
  };
  std::vector<Put> puts;
  std::vector<std::pair<SimTime, SimTime>> drop_windows;
  NodeId cut_a = 0;
  NodeId cut_b = 0;
  SimTime cut_at = 0;
  SimTime heal_at = 0;
  SimTime last_heal = 0;
  bool churned = false;
  NodeId victim = 0;
  SimTime crash_at = 0;
  SimTime restart_at = 0;
  SimTime join_at = 0;
  SimTime leave_at = 0;
  SimTime last_event = 0;  ///< The last heal, restart or leave.
};

constexpr FileId kScheduleFiles = 12;

/// The churn draws follow the fault draws, so a churned schedule keeps
/// the faults and puts of the plain schedule of the same seed.
FaultSchedule generate_schedule(std::uint64_t seed, bool churned) {
  Rng rng(seed);
  FaultSchedule s;
  const auto ms = [](double m) { return static_cast<SimTime>(m * 1000.0); };
  const auto windows = rng.uniform_int(1, 3);
  for (std::int64_t i = 0; i < windows; ++i) {
    const SimTime from = ms(rng.uniform(0.0, 5000.0));
    s.drop_windows.emplace_back(from, from + ms(rng.uniform(100.0, 1500.0)));
    s.last_heal = std::max(s.last_heal, s.drop_windows.back().second);
  }
  s.cut_a = static_cast<NodeId>(rng.next_below(6));
  s.cut_b = static_cast<NodeId>((s.cut_a + 1 + rng.next_below(5)) % 6);
  s.cut_at = ms(rng.uniform(0.0, 4000.0));
  s.heal_at = s.cut_at + ms(rng.uniform(500.0, 2500.0));
  s.last_heal = std::max(s.last_heal, s.heal_at);
  const double span_ms = 1e-3 * static_cast<double>(s.last_heal);
  const auto puts = rng.uniform_int(20, 60);
  for (std::int64_t i = 0; i < puts; ++i) {
    const SimTime at = ms(rng.uniform(0.0, span_ms));
    s.puts.push_back(
        {at, 1 + static_cast<FileId>(rng.next_below(kScheduleFiles))});
  }
  s.last_event = s.last_heal;
  if (!churned) return s;
  s.churned = true;
  s.victim = static_cast<NodeId>(rng.next_below(6));
  s.crash_at = ms(rng.uniform(0.0, 4000.0));
  s.restart_at = s.crash_at + ms(rng.uniform(300.0, 2000.0));
  s.join_at = ms(rng.uniform(0.0, 4000.0));
  s.leave_at = s.join_at + ms(rng.uniform(300.0, 2000.0));
  s.last_event = std::max({s.last_heal, s.restart_at, s.leave_at});
  return s;
}

/// Replay `s` until its last event (with incremental checkpoints on when
/// it is churned), then run up to `max_periods` more anti-entropy periods;
/// returns how many it took until every file's replicas were identical,
/// or -1.  `resend_timeout` > 0 turns replication acks on.
int replay_schedule(const FaultSchedule& s, std::uint64_t seed,
                    bool anti_entropy, int max_periods,
                    SimDuration resend_timeout = 0) {
  ShardedClusterConfig cfg = ae_config(seed, anti_entropy);
  cfg.replication_resend_timeout = resend_timeout;
  if (s.churned) {
    cfg.checkpoint.engine = replica::CheckpointEngineKind::kIncremental;
    cfg.checkpoint.period = sec(1);
  }
  ShardedCluster cluster(cfg);
  cluster.place(1, kScheduleFiles);
  auto session = std::make_shared<client::ClientSession>(
      cluster, client::SessionOptions{});
  for (std::size_t i = 0; i < s.puts.size(); ++i) {
    const FaultSchedule::Put put = s.puts[i];
    cluster.sim().schedule_at(put.at, [session, put, i] {
      session->put(put.file, "g" + std::to_string(i), 1.0);
    });
  }
  for (const auto& [from, until] : s.drop_windows) {
    cluster.transport().add_drop_window(from, until);
  }
  net::SimTransport& wire = cluster.transport();
  cluster.sim().schedule_at(s.cut_at,
                            [&wire, &s] { wire.partition(s.cut_a, s.cut_b); });
  cluster.sim().schedule_at(s.heal_at,
                            [&wire, &s] { wire.heal(s.cut_a, s.cut_b); });
  ShardedCluster* c = &cluster;
  NodeId joined = kNoNode;
  if (s.churned) {
    cluster.sim().schedule_at(s.crash_at,
                              [c, &s] { c->crash_endpoint(s.victim); });
    cluster.sim().schedule_at(s.restart_at,
                              [c, &s] { c->restart_endpoint(s.victim); });
    cluster.sim().schedule_at(
        s.join_at, [c, &joined] { joined = c->add_endpoint().endpoint; });
    cluster.sim().schedule_at(s.leave_at,
                              [c, &joined] { c->remove_endpoint(joined); });
  }
  cluster.run_until(s.last_event);
  return periods_to_convergence(cluster, 1, kScheduleFiles, max_periods);
}

// Only the acting coordinator runs rounds, and it digests every live
// follower it may differ from (see replica_sync.hpp): an update only a
// follower holds reaches the coordinator in one round and the other
// followers in the next, so an update reaches every rank within two
// rounds; the bound, which once allowed a rotation over k - 1 peers
// twice, keeps that slack plus two periods of message latency.  With
// acks on, a follower that owes an ack sits the rounds out until its ack
// or its update's give-up, at most (2 + 1) x 300 ms after the put, and
// every put comes before the last event: the same bound covers that
// wait.
constexpr int kScheduleBound = 2 * (3 - 1) + 2;

TEST(AntiEntropyTest, GeneratedFaultSchedulesConvergeAfterTheLastHeal) {
  int control_diverged = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultSchedule s = generate_schedule(0xFA17 + seed, false);
    const int periods = replay_schedule(s, seed, true, kScheduleBound);
    EXPECT_NE(periods, -1) << "seed " << seed << ": not converged "
                           << kScheduleBound << " periods after the last heal";
    if (replay_schedule(s, seed, false, kScheduleBound) == -1) {
      ++control_diverged;
    }
  }
  // The schedules must actually lose pushes: without anti-entropy some
  // file stays diverged.
  EXPECT_GE(control_diverged, 1);
}

TEST(AntiEntropyTest, GeneratedChurnedSchedulesConvergeAfterTheLastEvent) {
  // A restart or a migration restarts its group's rounds, so the same
  // bound counts from the schedule's last heal, restart or leave.
  for (std::uint64_t seed = 21; seed <= 40; ++seed) {
    const FaultSchedule s = generate_schedule(0xFA17 + seed, true);
    EXPECT_NE(replay_schedule(s, seed, true, kScheduleBound), -1)
        << "seed " << seed << ": not converged " << kScheduleBound
        << " periods after the last event";
  }
}

TEST(AntiEntropyTest, GeneratedSchedulesConvergeWithAcksOn) {
  // The same 40 schedules with replication acks on, as the benchmark runs
  // them: acks carry counts and match pairs, re-sends and give-ups run,
  // and the bound still holds.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const FaultSchedule s = generate_schedule(0xFA17 + seed, seed > 20);
    EXPECT_NE(replay_schedule(s, seed, true, kScheduleBound, msec(300)), -1)
        << "seed " << seed << ": not converged " << kScheduleBound
        << " periods after the last event";
  }
}

TEST(AntiEntropyTest, TheAgentDoesNotGrow) {
  // Every placed rank carries an agent, and its size moves the benchmark's
  // speed probe (a 328-byte draft read fleet_1000 17 % slower per
  // reference second at an unchanged raw wall time).  State only
  // anti-entropy needs lives behind the agent's lazily allocated pointer.
#if defined(__x86_64__) && defined(__GLIBCXX__)
  EXPECT_EQ(sizeof(ReplicaSyncAgent), 312u);
#else
  GTEST_SKIP() << "the size is pinned for x86-64 libstdc++ only";
#endif
}

TEST(AntiEntropyTest, DisabledByDefaultKeepsPushOnlyBehavior) {
  ShardedCluster cluster(ae_config(7, /*anti_entropy=*/false));
  cluster.ensure_open(1);
  EXPECT_FALSE(cluster.sync_agent(1, 0)->anti_entropy_running());
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(1, "x", 1.0).ok());
  cluster.run_for(sec(3));
  EXPECT_EQ(cluster.batching()->counters().messages_of("shard.digest"), 0u);
  EXPECT_TRUE(replicas_identical(cluster, 1));  // pushes alone suffice
}

}  // namespace
}  // namespace idea::shard
