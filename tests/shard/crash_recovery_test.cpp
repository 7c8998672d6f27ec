/// \file crash_recovery_test.cpp
/// \brief Crash-stop/restart fault model end to end: the durable
///        checkpoint store, delta-based recovery via anti-entropy, and
///        routing failover while members are down.
///
/// The acceptance scenario crashes k-1 of a file's replicas mid-workload
/// under scripted loss, restarts them, and demands byte-identical content
/// digests against a never-crashed control run of the same seed — crash
/// and recovery must be invisible in the converged state.  A second
/// scenario pins the O(delta) property: with a durable checkpoint the
/// restarted replica heals only the checkpoint→crash gap over the wire,
/// while the no-checkpoint control re-streams the whole log.  A third pins
/// that incremental checkpoints follow a group rebuild (a join's
/// migration), so a later restart still finds every file's checkpoint.
/// A fourth pins that a checkpoint pass, which visits only the replicas
/// on its endpoint's dirty list, still hears of every kind of store
/// mutation, with anti-entropy on and off.  A fifth pins that a restart
/// builds only the returning member's replicas: the survivors keep their
/// agents and their durable records stay current.  A sixth pins that a
/// crash also loses the pushes its batch queues still held, so a restart
/// inside the batching window cannot split a sequence number.  A seventh
/// pins that a restart in the crash's own instant is refused, so the
/// endpoint cannot come back behind a crash window that never closes.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "client/session.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::shard {
namespace {

constexpr SimDuration kAePeriod = msec(500);

ShardedClusterConfig crash_config(std::uint64_t seed,
                                  replica::CheckpointEngineKind engine,
                                  double loss_rate) {
  ShardedClusterConfig cfg;
  cfg.endpoints = 6;
  cfg.replication = 3;
  cfg.seed = seed;
  cfg.transport.loss_rate = loss_rate;
  cfg.sync_sizes();
  cfg.anti_entropy_period = kAePeriod;
  cfg.checkpoint.engine = engine;
  cfg.checkpoint.period = sec(1);
  return cfg;
}

bool replicas_identical(ShardedCluster& cluster, FileId file) {
  core::IdeaNode* coord = cluster.replica_at_rank(file, 0);
  if (coord == nullptr) return false;
  const auto k = static_cast<std::uint32_t>(cluster.group_of(file).size());
  for (std::uint32_t rank = 1; rank < k; ++rank) {
    core::IdeaNode* node = cluster.replica_at_rank(file, rank);
    if (node == nullptr) return false;
    if (node->store().evv().counts() != coord->store().evv().counts()) {
      return false;
    }
    if (node->store().content_digest() != coord->store().content_digest()) {
      return false;
    }
  }
  return true;
}

int periods_to_convergence(ShardedCluster& cluster, FileId file,
                           int max_periods) {
  for (int period = 0; period <= max_periods; ++period) {
    if (replicas_identical(cluster, file)) return period;
    cluster.run_for(kAePeriod);
  }
  return -1;
}

TEST(CrashRecoveryTest, KillRestartMatchesNeverCrashedControlByteExactly) {
  // k-1 = 2 of the file's three replicas crash mid-workload (staggered,
  // overlapping) under probabilistic wire loss; both restart and recover
  // from durable checkpoints + anti-entropy.  The converged digests must
  // equal a control run that never crashed anything.
  static constexpr FileId kFile = 3;
  constexpr int kWrites = 40;
  constexpr std::uint64_t kSeed = 2026;

  CrashReport crash1, crash2;
  RecoveryReport rec1, rec2;
  auto run = [&](bool faulted) {
    auto cluster = std::make_unique<ShardedCluster>(crash_config(
        kSeed, replica::CheckpointEngineKind::kIncremental, 0.05));
    cluster->ensure_open(kFile);
    const std::vector<NodeId> group = cluster->group_of(kFile);
    auto session = std::make_shared<client::ClientSession>(
        *cluster, client::SessionOptions{});
    // Writes route to the rank-0 coordinator, which never crashes here,
    // so both runs issue the identical update sequence.
    for (int i = 1; i <= kWrites; ++i) {
      cluster->sim().schedule_at(msec(250) * i, [session, i] {
        ASSERT_TRUE(session->put(kFile, "w" + std::to_string(i), 1.0).ok());
      });
    }
    if (faulted) {
      ShardedCluster* c = cluster.get();
      cluster->sim().schedule_at(sec(3) + msec(100), [c, group, &crash1] {
        crash1 = c->crash_endpoint(group[1]);
      });
      cluster->sim().schedule_at(sec(5) + msec(100), [c, group, &crash2] {
        crash2 = c->crash_endpoint(group[2]);
      });
      cluster->sim().schedule_at(sec(7) + msec(50), [c, group, &rec1] {
        rec1 = c->restart_endpoint(group[1]);
      });
      cluster->sim().schedule_at(sec(8) + msec(50), [c, group, &rec2] {
        rec2 = c->restart_endpoint(group[2]);
      });
    }
    cluster->run_until(sec(12));
    return cluster;
  };

  auto faulted = run(true);
  ASSERT_EQ(crash1.endpoint, faulted->group_of(kFile)[1]);
  EXPECT_GE(crash1.groups_affected, 1u);
  EXPECT_GT(crash1.volatile_updates_lost, 0u);
  EXPECT_GE(rec1.files_recovered, 1u);
  EXPECT_GE(rec1.checkpoint_files, 1u);
  EXPECT_GT(rec1.checkpoint_updates, 0u);
  EXPECT_GT(rec2.checkpoint_updates, 0u);
  EXPECT_EQ(rec1.incarnation, 1u);  // second life of the slot
  EXPECT_FALSE(faulted->is_crashed(crash1.endpoint));
  EXPECT_GT(faulted->transport().fault_dropped(), 0u)
      << "the crash windows never dropped anything — the fault script "
         "did not bite";

  const int periods = periods_to_convergence(*faulted, kFile, 8);
  ASSERT_NE(periods, -1) << "replicas diverged after crash+restart";

  auto control = run(false);
  const int control_periods = periods_to_convergence(*control, kFile, 8);
  ASSERT_NE(control_periods, -1);

  core::IdeaNode* control_coord = control->replica_at_rank(kFile, 0);
  ASSERT_NE(control_coord, nullptr);
  EXPECT_EQ(control_coord->store().update_count(),
            static_cast<std::size_t>(kWrites));
  const std::uint64_t expected_digest =
      control_coord->store().content_digest();
  for (std::uint32_t rank = 0; rank < 3; ++rank) {
    core::IdeaNode* node = faulted->replica_at_rank(kFile, rank);
    ASSERT_NE(node, nullptr) << "rank " << rank;
    EXPECT_EQ(node->store().update_count(),
              static_cast<std::size_t>(kWrites))
        << "rank " << rank;
    EXPECT_EQ(node->store().content_digest(), expected_digest)
        << "rank " << rank
        << ": post-recovery contents differ from the never-crashed control";
  }
}

TEST(CrashRecoveryTest, RecoveryStreamsTheDeltaNotTheLog) {
  // Same crash at the same instant; the only difference is whether a
  // durable checkpoint exists.  With one, the wire pays only for the
  // checkpoint→crash gap; without, anti-entropy re-streams everything.
  static constexpr FileId kFile = 3;
  constexpr int kWrites = 40;

  struct Outcome {
    RecoveryReport recovery;
    std::uint64_t repair_updates_applied = 0;
    std::uint64_t migrate_updates_applied = 0;
    std::size_t final_count = 0;
    bool converged = false;
  };
  auto run = [&](replica::CheckpointEngineKind engine) {
    ShardedCluster cluster(crash_config(7117, engine, /*loss_rate=*/0.0));
    cluster.ensure_open(kFile);
    const std::vector<NodeId> group = cluster.group_of(kFile);
    client::ClientSession session(cluster, {});
    for (int i = 1; i <= kWrites; ++i) {
      cluster.sim().schedule_at(msec(250) * i, [&session, i] {
        ASSERT_TRUE(session.put(kFile, "w" + std::to_string(i), 1.0).ok());
      });
    }
    Outcome out;
    // Crash shortly after the t=8s checkpoint: the durable image covers
    // ~32 writes, the downtime covers ~4 — that is the delta.
    cluster.sim().schedule_at(sec(8) + msec(300), [&cluster, group] {
      cluster.crash_endpoint(group[1]);
    });
    cluster.sim().schedule_at(sec(9) + msec(50), [&cluster, group, &out] {
      out.recovery = cluster.restart_endpoint(group[1]);
    });
    cluster.run_until(sec(12));
    for (int period = 0; period < 8 && !replicas_identical(cluster, kFile);
         ++period) {
      cluster.run_for(kAePeriod);
    }
    out.converged = replicas_identical(cluster, kFile);
    const ReplicaSyncStats& s = cluster.sync_agent(kFile, 1)->stats();
    out.repair_updates_applied = s.repair_updates_applied;
    out.migrate_updates_applied = s.migrate_updates_applied;
    out.final_count = cluster.replica_at_rank(kFile, 1)->store().update_count();
    return out;
  };

  const Outcome with_ckpt = run(replica::CheckpointEngineKind::kIncremental);
  const Outcome without = run(replica::CheckpointEngineKind::kNone);

  ASSERT_TRUE(with_ckpt.converged);
  ASSERT_TRUE(without.converged);
  EXPECT_EQ(with_ckpt.final_count, static_cast<std::size_t>(kWrites));
  EXPECT_EQ(without.final_count, static_cast<std::size_t>(kWrites));

  // The checkpointed recovery reloaded most of the log from durable
  // storage without touching the wire...
  EXPECT_GE(with_ckpt.recovery.checkpoint_updates, 28u);
  EXPECT_LE(with_ckpt.recovery.gap_updates, 10u);
  // ...so its repair traffic is the delta, not the history.
  EXPECT_LE(with_ckpt.repair_updates_applied, 10u);
  // The no-checkpoint control restarts empty and re-streams ~everything.
  EXPECT_EQ(without.recovery.checkpoint_files, 0u);
  EXPECT_EQ(without.recovery.checkpoint_updates, 0u);
  EXPECT_GE(without.repair_updates_applied, 30u);
  EXPECT_GT(without.repair_updates_applied,
            3 * with_ckpt.repair_updates_applied);
  // Recovery never uses the migration stream.
  EXPECT_EQ(with_ckpt.migrate_updates_applied, 0u);
  EXPECT_EQ(without.migrate_updates_applied, 0u);
}

TEST(CrashRecoveryTest, CoordinatorCrashFailsOverAndRestartsWithoutSeqReuse) {
  constexpr FileId kFile = 5;
  ShardedCluster cluster(crash_config(
      909, replica::CheckpointEngineKind::kIncremental, /*loss_rate=*/0.0));
  cluster.ensure_open(kFile);
  const std::vector<NodeId> group = cluster.group_of(kFile);
  client::ClientSession session(cluster, {});

  // Phase 1: ten writes through the real coordinator (rank 0).
  for (int i = 1; i <= 10; ++i) {
    cluster.sim().schedule_at(msec(300) * i, [&session, i] {
      ASSERT_TRUE(session.put(kFile, "a" + std::to_string(i), 1.0).ok());
    });
  }
  cluster.run_until(sec(3) + msec(400));
  cluster.crash_endpoint(group[0]);
  EXPECT_TRUE(cluster.is_crashed(group[0]));

  // Phase 2: writes and strong reads keep working through the acting
  // coordinator (lowest alive rank).
  for (int i = 1; i <= 10; ++i) {
    cluster.sim().schedule_at(sec(3) + msec(500) + msec(300) * i,
                              [&session, i] {
                                ASSERT_TRUE(session
                                                .put(kFile,
                                                     "b" + std::to_string(i),
                                                     1.0)
                                                .ok());
                              });
  }
  cluster.run_until(sec(6) + msec(600));
  const client::OpHandle<client::ReadResult> read =
      session.read(kFile, client::ConsistencyLevel::strong());
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->served_by, group[1]) << "strong read must fail over to "
                                          "the acting coordinator";
  EXPECT_EQ(cluster.router().stats().failover_writes, 10u);

  // Phase 3: restart.  The old coordinator re-adopts its own writer
  // history (checkpoint + survivor reconciliation) and resumes rank 0.
  const RecoveryReport rec = cluster.restart_endpoint(group[0]);
  EXPECT_GE(rec.checkpoint_files, 1u);
  EXPECT_GT(rec.checkpoint_updates + rec.reconciled_updates, 0u);
  core::IdeaNode* restarted = cluster.replica_at_rank(kFile, 0);
  ASSERT_NE(restarted, nullptr);
  // Sequence continuation: its next write must be seq 11, not a reused 1.
  EXPECT_EQ(restarted->store().local_seq(), 10u);

  cluster.sim().schedule_at(cluster.sim().now() + msec(100), [&session] {
    ASSERT_TRUE(session.put(kFile, "post", 1.0).ok());
  });
  cluster.run_for(sec(1));
  const replica::Update* post =
      restarted->store().find(replica::UpdateKey{0, 11});
  ASSERT_NE(post, nullptr);
  EXPECT_EQ(post->content, "post");

  for (int period = 0; period < 10 && !replicas_identical(cluster, kFile);
       ++period) {
    cluster.run_for(kAePeriod);
  }
  ASSERT_TRUE(replicas_identical(cluster, kFile));
  EXPECT_EQ(restarted->store().update_count(), 21u);
}

TEST(CrashRecoveryTest, CheckpointEnginesAndDurableStorageSemantics) {
  ShardedCluster cluster(crash_config(
      44, replica::CheckpointEngineKind::kIncremental, /*loss_rate=*/0.0));
  constexpr FileId kFile = 2;
  cluster.ensure_open(kFile);
  const std::vector<NodeId> group = cluster.group_of(kFile);
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "x", 1.0).ok());
  cluster.run_for(msec(200));  // let the push land everywhere

  replica::DurableStorage& storage = cluster.durable_storage();

  // First manual pass persists the dirty replica; the second, with no
  // writes in between, skips it as clean.
  cluster.checkpoint_endpoint(group[0]);
  const replica::CheckpointRecord* first = storage.latest(group[0], kFile);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->epoch, 1u);
  EXPECT_EQ(first->updates.size(), 1u);
  EXPECT_EQ(first->members, group);
  EXPECT_GT(first->bytes, 0u);

  const std::uint64_t written_before = storage.records_written();
  cluster.checkpoint_endpoint(group[0]);
  EXPECT_EQ(storage.records_written(), written_before)
      << "clean replica must not be re-persisted";

  // A new write dirties it again; the new record replaces the old one.
  ASSERT_TRUE(session.put(kFile, "y", 1.0).ok());
  cluster.checkpoint_endpoint(group[0]);
  ASSERT_TRUE(session.put(kFile, "z", 1.0).ok());
  cluster.checkpoint_endpoint(group[0]);
  const replica::CheckpointRecord* newest = storage.latest(group[0], kFile);
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->epoch, 3u);
  EXPECT_EQ(newest->updates.size(), 3u);
  EXPECT_EQ(storage.records_written(), written_before + 2);
  EXPECT_EQ(storage.record_count(), 1u)
      << "the store holds one record per (endpoint, file)";

  // The periodic timers are armed for every endpoint (enabled() config),
  // so simply running the clock also writes records for the other ranks
  // — still one per (endpoint, file).
  cluster.run_for(sec(2) + msec(100));
  EXPECT_NE(storage.latest(group[1], kFile), nullptr);
  EXPECT_NE(storage.latest(group[2], kFile), nullptr);
  EXPECT_EQ(storage.record_count(), group.size());
}

TEST(CrashRecoveryTest, IncrementalCheckpointsFollowAGroupRebuild) {
  // A join migrates some files to new groups.  Each surviving member's
  // store is rebuilt under the same incarnation and re-imports the same
  // updates, so its mutation count lands where the old store's stood.
  // The store's dirty test must still treat the rebuilt replica as dirty
  // and persist it under the new membership: a record that keeps the old
  // members is discarded on restart, and the file recovers from zero.
  constexpr FileId kFiles = 60;
  constexpr NodeId kVictim = 0;
  ShardedCluster cluster(crash_config(
      61, replica::CheckpointEngineKind::kIncremental, /*loss_rate=*/0.0));
  cluster.place(1, kFiles);
  client::ClientSession session(cluster, {});
  for (FileId file = 1; file <= kFiles; ++file) {
    for (int i = 1; i <= 3; ++i) {
      ASSERT_TRUE(session.put(file, "w" + std::to_string(i), 1.0).ok());
    }
  }
  cluster.run_for(sec(2) + msec(100));  // pushes land, checkpoints run
  std::vector<std::vector<NodeId>> before(kFiles + 1);
  for (FileId file = 1; file <= kFiles; ++file) {
    before[file] = cluster.group_of(file);
  }
  cluster.add_endpoint();
  cluster.run_for(sec(3));  // no writes: only the rebuild dirties stores

  const replica::DurableStorage& storage = cluster.durable_storage();
  std::size_t moved = 0;
  std::size_t hosted = 0;
  for (FileId file = 1; file <= kFiles; ++file) {
    const std::vector<NodeId> members = cluster.group_of(file);
    if (members != before[file]) ++moved;
    if (std::find(members.begin(), members.end(), kVictim) != members.end()) {
      ++hosted;
    }
    for (NodeId endpoint : members) {
      const replica::CheckpointRecord* latest =
          storage.latest(endpoint, file);
      ASSERT_NE(latest, nullptr) << "file " << file << " endpoint "
                                 << endpoint;
      EXPECT_EQ(latest->members, members)
          << "file " << file << " endpoint " << endpoint
          << ": the latest record predates the group rebuild";
    }
  }
  ASSERT_GT(moved, 0u) << "the join migrated nothing; the test is moot";

  cluster.crash_endpoint(kVictim);
  cluster.run_for(msec(1));  // a restart in the crash's instant is refused
  const RecoveryReport rec = cluster.restart_endpoint(kVictim);
  EXPECT_EQ(rec.files_recovered, hosted);
  EXPECT_EQ(rec.checkpoint_files, hosted)
      << "every hosted file must reload from its checkpoint";
  EXPECT_EQ(rec.gap_updates, 0u);
}

TEST(CrashRecoveryTest, QuietRestartLeavesTheSurvivorsAlone) {
  // Nothing is written while the victim is down, so a restart that
  // touched only the victim's ranks leaves every survivor exactly as it
  // was: the same agent with its counters running on, and a store whose
  // durable record still describes it.
  constexpr FileId kFiles = 24;
  constexpr NodeId kVictim = 2;
  ShardedCluster cluster(crash_config(
      83, replica::CheckpointEngineKind::kIncremental, /*loss_rate=*/0.0));
  cluster.place(1, kFiles);
  client::ClientSession session(cluster, {});
  for (FileId file = 1; file <= kFiles; ++file) {
    ASSERT_TRUE(session.put(file, "w", 1.0).ok());
  }
  cluster.run_for(sec(3));  // pushes land, pairs match, records written
  cluster.crash_endpoint(kVictim);
  cluster.run_for(sec(2));

  struct Survivor {
    FileId file = 0;
    std::uint32_t rank = 0;
    ReplicaSyncStats stats;
  };
  std::vector<Survivor> survivors;
  for (FileId file = 1; file <= kFiles; ++file) {
    const FileGroup* g = cluster.group(file);
    if (g->rank_of(kVictim) == g->members.size()) continue;
    for (std::uint32_t rank = 0; rank < g->ranks.size(); ++rank) {
      if (g->members[rank] == kVictim) continue;
      survivors.push_back({file, rank, g->ranks[rank].sync->stats()});
    }
  }
  ASSERT_FALSE(survivors.empty()) << "the victim hosts no file";

  const RecoveryReport rec = cluster.restart_endpoint(kVictim);
  ASSERT_EQ(rec.files_recovered * 2, survivors.size());
  EXPECT_EQ(rec.checkpoint_files, rec.files_recovered);
  EXPECT_EQ(rec.gap_updates, 0u);

  for (const Survivor& s : survivors) {
    const ReplicaSyncStats& now = cluster.sync_agent(s.file, s.rank)->stats();
    const std::string where =
        "file " + std::to_string(s.file) + " rank " + std::to_string(s.rank);
    EXPECT_GT(s.stats.puts + s.stats.applied, 0u) << where;
    EXPECT_EQ(now.puts, s.stats.puts) << where;
    EXPECT_EQ(now.pushed, s.stats.pushed) << where;
    EXPECT_EQ(now.applied, s.stats.applied) << where;
    EXPECT_EQ(now.ae_rounds, s.stats.ae_rounds) << where;
    EXPECT_EQ(now.digests_received, s.stats.digests_received) << where;
    EXPECT_EQ(now.repairs_sent, s.stats.repairs_sent) << where;
  }

  // The next pass of every endpoint writes the restarted replicas'
  // records, one per hosted file, and no survivor's.
  const replica::DurableStorage& storage = cluster.durable_storage();
  const std::uint64_t written = storage.records_written();
  for (const NodeId endpoint : cluster.endpoints()) {
    cluster.checkpoint_endpoint(endpoint);
  }
  EXPECT_EQ(storage.records_written() - written, rec.files_recovered);
  const SimTime restarted_at = cluster.sim().now();
  for (FileId file = 1; file <= kFiles; ++file) {
    for (const NodeId endpoint : cluster.group(file)->members) {
      const replica::CheckpointRecord* latest =
          storage.latest(endpoint, file);
      ASSERT_NE(latest, nullptr);
      EXPECT_EQ(latest->taken_at == restarted_at, endpoint == kVictim)
          << "file " << file << " endpoint " << endpoint;
    }
  }
}

TEST(CrashRecoveryTest, ACrashLosesItsUnflushedBatches) {
  // Under a 50 ms batching window the coordinator's pushes of its write
  // still wait in its batch queues when it crashes, and it restarts
  // before the window closes.  The crash must lose them with the rest of
  // its volatile state.  Flushed after the restart, they would hand the
  // survivors a write the restarted replica never reloads, and its next
  // write would reuse that sequence number with other content: a split
  // that digests, which compare counts only, never repair.
  constexpr FileId kFile = 5;
  ShardedClusterConfig cfg =
      crash_config(91, replica::CheckpointEngineKind::kNone, 0.0);
  cfg.batch.window = msec(50);
  ShardedCluster cluster(cfg);
  cluster.ensure_open(kFile);
  const NodeId coordinator = cluster.group_of(kFile)[0];
  client::ClientSession session(cluster, {});
  ASSERT_TRUE(session.put(kFile, "lost", 1.0).ok());
  cluster.crash_endpoint(coordinator);
  cluster.run_for(msec(10));
  cluster.restart_endpoint(coordinator);
  ASSERT_EQ(cluster.coordinator(kFile).second, coordinator);
  ASSERT_TRUE(session.put(kFile, "kept", 1.0).ok());

  EXPECT_NE(periods_to_convergence(cluster, kFile, 6), -1);
  for (std::uint32_t rank = 0; rank < 3; ++rank) {
    const replica::ReplicaStore& store =
        cluster.replica_at_rank(kFile, rank)->store();
    ASSERT_EQ(store.update_count(), 1u) << "rank " << rank;
    EXPECT_EQ(store.export_log().front().content, "kept") << "rank " << rank;
  }
}

/// Drives every source of a store mutation under anti-entropy period `ae`
/// (0 = off), stops traffic for three checkpoint periods, and requires
/// each live replica's durable record to describe its store.
void check_every_mutation_source_reaches_the_record(SimDuration ae) {
  // Files above kWritten are never written, so only their group builds
  // can list them.
  constexpr FileId kFiles = 40;
  constexpr FileId kWritten = 30;
  ShardedClusterConfig cfg = crash_config(
      515, replica::CheckpointEngineKind::kIncremental, /*loss_rate=*/0.0);
  cfg.anti_entropy_period = ae;
  // A give-up digests the silent ranks, so a push lost in the window is
  // repaired even with anti-entropy off.
  cfg.replication_resend_timeout = msec(200);
  ShardedCluster cluster(cfg);
  cluster.place(1, kFiles);
  // w = all: while a member is down, its writes park hints at a stand-in,
  // and its restart drains them.
  client::SessionOptions options;
  options.write_concern = client::WriteConcern::all();
  client::ClientSession session(cluster, options);
  constexpr int kPuts = 160;  // one per 50 ms until 8 s
  for (int i = 0; i < kPuts; ++i) {
    const FileId file = 1 + static_cast<FileId>(i) % kWritten;
    cluster.sim().schedule_at(msec(50) * (i + 1), [&session, file, i] {
      session.put(file, "w" + std::to_string(i), 1.0);
    });
  }
  constexpr NodeId kVictim = 1;
  constexpr NodeId kLeaver = 4;
  RecoveryReport rec;
  MembershipChange joined, left;
  ShardedCluster* c = &cluster;
  cluster.sim().schedule_at(sec(2) + msec(30),
                            [c] { c->crash_endpoint(kVictim); });
  cluster.sim().schedule_at(sec(3) + msec(70), [c, &rec] {
    rec = c->restart_endpoint(kVictim);
  });
  cluster.sim().schedule_at(sec(4) + msec(10),
                            [c, &joined] { joined = c->add_endpoint(); });
  cluster.sim().schedule_at(sec(5) + msec(10), [c, &left] {
    left = c->remove_endpoint(kLeaver);
  });
  cluster.transport().add_drop_window(sec(6), sec(6) + msec(600));
  cluster.run_until(sec(8));
  cluster.run_for(3 * cfg.checkpoint.period);  // no traffic

  ASSERT_GT(rec.files_recovered, 0u);
  EXPECT_GT(rec.checkpoint_updates, 0u);
  EXPECT_GT(rec.hinted_updates, 0u) << "no hint drained on restart";
  EXPECT_GT(joined.stream_messages, 0u);
  EXPECT_GT(left.stream_messages, 0u);
  EXPECT_GT(cluster.transport().fault_dropped(), 0u);
  std::uint64_t repaired = 0;
  const replica::DurableStorage& storage = cluster.durable_storage();
  for (FileId file = 1; file <= kFiles; ++file) {
    const FileGroup* g = cluster.group(file);
    ASSERT_NE(g, nullptr);
    for (std::uint32_t rank = 0; rank < g->ranks.size(); ++rank) {
      const NodeId endpoint = g->members[rank];
      const GroupRank& r = g->ranks[rank];
      ASSERT_NE(r.node, nullptr) << "endpoint " << endpoint << " is down";
      repaired += r.sync->stats().repair_updates_applied;
      const replica::CheckpointRecord* latest =
          storage.latest(endpoint, file);
      ASSERT_NE(latest, nullptr) << "file " << file << " endpoint "
                                 << endpoint << ": never checkpointed";
      EXPECT_EQ(latest->mutations, r.node->store().mutation_count())
          << "file " << file << " endpoint " << endpoint;
      EXPECT_EQ(latest->group_epoch, g->epoch)
          << "file " << file << " endpoint " << endpoint;
      EXPECT_EQ(latest->members, g->members)
          << "file " << file << " endpoint " << endpoint;
    }
  }
  EXPECT_GT(repaired, 0u) << "the loss window left nothing to repair";
}

TEST(CrashRecoveryTest, ARestartAtTheCrashInstantIsRefused) {
  // The transport closes a crash window only after it opened, so a
  // restart in the crash's own instant would leave the endpoint behind a
  // window that never closes: every message to or from it would drop.
  // That restart is refused and the endpoint stays crashed; a restart one
  // millisecond later brings it back, and every group heals.
  constexpr FileId kFiles = 12;
  constexpr NodeId kVictim = 2;
  ShardedCluster cluster(crash_config(
      2007, replica::CheckpointEngineKind::kNone, /*loss_rate=*/0.0));
  cluster.place(1, kFiles);
  cluster.run_until(sec(1));
  ASSERT_EQ(cluster.crash_endpoint(kVictim).endpoint, kVictim);
  const RecoveryReport refused = cluster.restart_endpoint(kVictim);
  EXPECT_EQ(refused.endpoint, kNoNode);
  EXPECT_EQ(refused.files_recovered, 0u);
  EXPECT_TRUE(cluster.is_crashed(kVictim));

  cluster.run_for(msec(1));
  const RecoveryReport rec = cluster.restart_endpoint(kVictim);
  EXPECT_EQ(rec.endpoint, kVictim);
  EXPECT_GT(rec.files_recovered, 0u);
  EXPECT_FALSE(cluster.is_crashed(kVictim));
  EXPECT_FALSE(
      cluster.transport().node_crashed(kVictim, cluster.sim().now()));

  client::ClientSession session(cluster, {});
  for (FileId file = 1; file <= kFiles; ++file) {
    ASSERT_TRUE(session.put(file, "after", 1.0).ok());
  }
  for (FileId file = 1; file <= kFiles; ++file) {
    EXPECT_NE(periods_to_convergence(cluster, file, 6), -1)
        << "file " << file << " never converged";
  }
}

TEST(CrashRecoveryTest, EveryMutationSourceReachesTheDurableRecord) {
  // A checkpoint pass offers durable storage only the replicas on its
  // endpoint's dirty list, so every source of a store mutation must list
  // its replica: puts, repairs after a loss window, restart imports and
  // the hinted-handoff drain, migration streams, and each group build.
  // With anti-entropy off too: listing must not depend on it.
  {
    SCOPED_TRACE("anti-entropy every 500 ms");
    check_every_mutation_source_reaches_the_record(kAePeriod);
  }
  {
    SCOPED_TRACE("anti-entropy off");
    check_every_mutation_source_reaches_the_record(0);
  }
}

}  // namespace
}  // namespace idea::shard
