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
/// Rounds run only while a replica may differ from a peer, so the tests
/// also pin that a quiet group sends no digest, that one exchange matches
/// a pair on both sides, that a digest's size does not grow with the log,
/// and that generated fault schedules still converge when only the
/// changed side starts rounds.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "client/session.hpp"
#include "shard/sharded_cluster.hpp"
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

TEST(AntiEntropyTest, DigestRepairFlowAndStats) {
  constexpr FileId kFile = 5;
  ShardedCluster cluster(ae_config(4207, /*anti_entropy=*/true));
  cluster.ensure_open(kFile);
  // A new group starts unmatched: every rank has rounds to run.
  for (std::uint32_t rank = 0; rank < 3; ++rank) {
    EXPECT_TRUE(cluster.sync_agent(kFile, rank)->anti_entropy_running());
  }

  struct Totals {
    std::uint64_t rounds = 0;
    std::uint64_t digests = 0;
    std::uint64_t repairs = 0;
  };
  auto totals = [&] {
    Totals t;
    for (std::uint32_t rank = 0; rank < 3; ++rank) {
      const ReplicaSyncStats& s = cluster.sync_agent(kFile, rank)->stats();
      t.rounds += s.ae_rounds;
      t.digests += s.digests_received;
      t.repairs += s.repairs_sent;
    }
    return t;
  };
  auto all_matched = [&] {
    for (std::uint32_t rank = 0; rank < 3; ++rank) {
      if (cluster.sync_agent(kFile, rank)->anti_entropy_running()) {
        return false;
      }
    }
    return true;
  };
  const auto digests_on_wire = [&] {
    return cluster.batching()->counters().messages_of("shard.digest");
  };

  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "hello", 1.0).ok());
  cluster.run_for(sec(3));

  // The pushes delivered the put, so each pair exchanged once, found the
  // pair identical and matched on both sides: k(k-1)/2 = 3 rounds, each
  // digest answered by exactly one repair and none needing a push-back.
  // Then every pair is matched and every round timer is stopped.
  Totals t = totals();
  EXPECT_EQ(t.rounds, 3u);
  EXPECT_EQ(t.digests, t.rounds);
  EXPECT_EQ(t.repairs, t.digests);
  EXPECT_TRUE(all_matched());
  EXPECT_TRUE(replicas_identical(cluster, kFile));
  EXPECT_EQ(cluster.batching()->counters().messages_of("shard.repair"),
            t.repairs);

  // A quiet group sends nothing.
  const std::uint64_t quiet_digests = digests_on_wire();
  EXPECT_EQ(quiet_digests, t.digests);
  cluster.run_for(sec(5));
  EXPECT_EQ(digests_on_wire(), quiet_digests);
  EXPECT_EQ(totals().rounds, t.rounds);

  // A second put changes every replica, so every rank runs rounds again
  // until it matches both peers once more: 3 more rounds, 6 in all.
  ASSERT_TRUE(session.put(kFile, "again", 1.0).ok());
  EXPECT_TRUE(cluster.sync_agent(kFile, 0)->anti_entropy_running());
  cluster.run_for(sec(3));
  const Totals again = totals();
  EXPECT_EQ(again.rounds, 2 * t.rounds);
  EXPECT_EQ(again.repairs, again.digests);
  EXPECT_GT(digests_on_wire(), quiet_digests);
  EXPECT_TRUE(all_matched());
  EXPECT_TRUE(replicas_identical(cluster, kFile));

  // Stopped means stopped: a later write does not re-arm rank 0's rounds,
  // while the ranks its push reached still run theirs.
  ReplicaSyncAgent* coord = cluster.sync_agent(kFile, 0);
  coord->stop_anti_entropy();
  const std::uint64_t coord_rounds = coord->stats().ae_rounds;
  ASSERT_TRUE(session.put(kFile, "after stop", 1.0).ok());
  EXPECT_FALSE(coord->anti_entropy_running());
  cluster.run_for(sec(3));
  EXPECT_EQ(coord->stats().ae_rounds, coord_rounds);
  EXPECT_GT(totals().rounds, again.rounds);
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
  const SimTime deadline = cluster.sim().now() + sec(5);
  const auto step_until = [&](const std::uint64_t& counter) {
    const std::uint64_t before = counter;
    while (counter == before && cluster.sim().now() < deadline) {
      cluster.sim().step();
    }
    return counter != before;
  };
  ASSERT_TRUE(step_until(cold.repairs_sent));
  wire.partition(m[1], m[0]);
  ASSERT_TRUE(step_until(coord->stats().repairs_sent));
  wire.heal(m[1], m[0]);
  ASSERT_FALSE(replicas_identical(cluster, kFile));
  EXPECT_TRUE(coord->anti_entropy_running());

  cluster.run_for(sec(3));
  EXPECT_EQ(cluster.replica_at_rank(kFile, 1)->store().update_count(), 2u);
}

/// Stands in for an endpoint on the edge transport: records the wire size
/// of every digest delivered to it, then hands the message on.
class DigestRecorder final : public net::MessageHandler {
 public:
  DigestRecorder(net::MessageHandler& target,
                 std::vector<std::uint32_t>& sizes)
      : target_(target), sizes_(sizes) {}

  void on_message(const net::Message& msg) override {
    if (msg.type == ReplicaSyncAgent::kDigestType) {
      sizes_.push_back(msg.wire_bytes);
    }
    target_.on_message(msg);
  }

 private:
  net::MessageHandler& target_;
  std::vector<std::uint32_t>& sizes_;
};

TEST(AntiEntropyTest, DigestSizeDoesNotGrowWithTheLog) {
  // A digest carries per-writer counts, so with one writer it costs the
  // same whether the log holds 1 update or 50.
  constexpr FileId kFile = 6;
  std::vector<std::uint32_t> sizes;
  std::vector<std::unique_ptr<DigestRecorder>> recorders;
  ShardedCluster cluster(ae_config(77, /*anti_entropy=*/true));
  cluster.ensure_open(kFile);
  for (const NodeId e : cluster.endpoints()) {
    recorders.push_back(
        std::make_unique<DigestRecorder>(cluster.service(e), sizes));
    cluster.edge().attach(e, recorders.back().get());
  }
  client::ClientSession session(cluster, {});

  ASSERT_TRUE(session.put(kFile, "p1", 1.0).ok());
  cluster.run_for(sec(3));
  ASSERT_FALSE(sizes.empty());
  const std::vector<std::uint32_t> after_one = sizes;

  sizes.clear();
  for (int i = 2; i <= 50; ++i) {
    ASSERT_TRUE(session.put(kFile, "p" + std::to_string(i), 1.0).ok());
  }
  cluster.run_for(sec(3));
  ASSERT_FALSE(sizes.empty());
  EXPECT_EQ(cluster.replica_at_rank(kFile, 0)->store().update_count(), 50u);
  EXPECT_TRUE(replicas_identical(cluster, kFile));

  // Every digest after either batch: a 16-byte header plus 12 bytes for
  // the one writer.
  for (const std::uint32_t bytes : after_one) EXPECT_EQ(bytes, 28u);
  for (const std::uint32_t bytes : sizes) EXPECT_EQ(bytes, after_one.back());
}

/// One generated fault schedule over a 6-endpoint, k = 3, 12-file
/// deployment: random puts, random full-loss windows and one pairwise
/// partition, every put and every fault before the last heal.
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
};

constexpr FileId kScheduleFiles = 12;

FaultSchedule generate_schedule(std::uint64_t seed) {
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
  return s;
}

/// Replay `s` until its last heal, then run up to `max_periods` more
/// anti-entropy periods; returns how many it took until every file's
/// replicas were identical, or -1.
int replay_schedule(const FaultSchedule& s, std::uint64_t seed,
                    bool anti_entropy, int max_periods) {
  ShardedCluster cluster(ae_config(seed, anti_entropy));
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
  cluster.run_until(s.last_heal);
  return periods_to_convergence(cluster, 1, kScheduleFiles, max_periods);
}

TEST(AntiEntropyTest, GeneratedFaultSchedulesConvergeAfterTheLastHeal) {
  // Only a replica that changed starts rounds, so a replica that merely
  // missed an update waits for a holder to digest it.  Every holder has
  // changed since it last matched the peer that lacks the update, so it
  // reaches that peer within k - 1 rounds of its rotation; the bound
  // allows that twice plus two periods of message latency.
  constexpr int kGroup = 3;
  constexpr int kBound = 2 * (kGroup - 1) + 2;
  int control_diverged = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultSchedule s = generate_schedule(0xFA17 + seed);
    const int periods = replay_schedule(s, seed, true, kBound);
    EXPECT_NE(periods, -1) << "seed " << seed << ": not converged "
                           << kBound << " periods after the last heal";
    if (replay_schedule(s, seed, false, kBound) == -1) ++control_diverged;
  }
  // The schedules must actually lose pushes: without anti-entropy some
  // file stays diverged.
  EXPECT_GE(control_diverged, 1);
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
