/// \file determinism_test.cpp
/// \brief Fixed-seed replay regression: the hot-path representation
///        (interned message types, shared payloads, pooled simulator
///        events, flat version vectors) must not change protocol behavior.
///
/// The expectations below were captured from the PRE-refactor
/// implementation (PR 1 seed: std::string message types, std::any payloads,
/// unordered_set lazy deletion in the simulator, std::map version vectors)
/// by running exactly this configuration and recording per-type message
/// counts, applied writes, convergence and the order-sensitive content
/// digest of every coordinator replica.  Any divergence — one extra
/// message, one reordered event, one different outcome — fails the test.
/// If a change alters protocol behavior *on purpose*, it must re-capture
/// these goldens and say so.  The message counts were re-captured once
/// when ranks stopped building the paper's per-file stack (detection,
/// gossip, RanSub): every put count, convergence count and content digest
/// held, and the detect.*/gossip.*/ransub.* traffic left the counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "apps/kvstore.hpp"
#include "client/session.hpp"
#include "shard/sharded_cluster.hpp"
#include "workload/engine.hpp"

namespace idea::shard {
namespace {

struct ReplayResult {
  std::uint64_t puts = 0;
  std::size_t converged = 0;
  std::uint64_t digest = 0;
  std::uint64_t logical_messages = 0;
  std::uint64_t wire_messages = 0;
  std::map<std::string, std::uint64_t> per_type;
};

ReplayResult replay(std::uint64_t seed) {
  constexpr std::uint32_t kFiles = 120;
  ShardedClusterConfig cfg;
  cfg.endpoints = 8;
  cfg.replication = 3;
  cfg.batching = true;
  cfg.seed = seed;
  cfg.sync_sizes();
  ShardedCluster cluster(cfg);
  cluster.place(1, kFiles);

  apps::KvStore kv(cluster,
                   apps::KvStoreOptions{.buckets = kFiles, .first_file = 1});
  apps::KvWorkloadParams wl;
  wl.clients = 16;
  wl.interval = msec(250);
  wl.duration = sec(6);
  wl.keyspace = 480;
  wl.zipf_s = 0.9;
  apps::KvWorkload workload(kv, cluster.sim(), wl, seed ^ 0xBEEF);
  workload.start();
  cluster.run_for(sec(6) + sec(10));

  ReplayResult r;
  r.puts = kv.puts();
  for (FileId f = 1; f <= kFiles; ++f) {
    if (cluster.converged(f)) ++r.converged;
    core::IdeaNode* coord = cluster.replica_at_rank(f, 0);
    if (coord != nullptr) {
      r.digest ^= coord->store().content_digest() * (f * 2654435761ull);
    }
  }
  r.logical_messages = cluster.batching()->stats().logical_messages;
  r.wire_messages = cluster.wire_counters().total_messages();
  r.per_type = cluster.batching()->counters().by_type();
  return r;
}

using Golden = std::map<std::string, std::uint64_t>;

TEST(ShardedClusterDeterminism, Seed2007MatchesPreRefactorRun) {
  const ReplayResult r = replay(2007);
  EXPECT_EQ(r.puts, 387u);
  EXPECT_EQ(r.converged, 120u);
  EXPECT_EQ(r.digest, 0xd4cf90538821fb05ull);
  // A rank runs no detection, gossip or RanSub: the pushes are the
  // whole traffic, and each goes out alone.
  EXPECT_EQ(r.logical_messages, 774u);
  EXPECT_EQ(r.wire_messages, 774u);
  const Golden expected{{"shard.replicate", 774}};
  EXPECT_EQ(r.per_type, expected);
}

TEST(ShardedClusterDeterminism, Seed555MatchesPreRefactorRun) {
  const ReplayResult r = replay(555);
  EXPECT_EQ(r.puts, 390u);
  EXPECT_EQ(r.converged, 120u);
  EXPECT_EQ(r.digest, 0xb8bd153ba9842aa6ull);
  EXPECT_EQ(r.logical_messages, 780u);
  EXPECT_EQ(r.wire_messages, 780u);
  const Golden expected{{"shard.replicate", 780}};
  EXPECT_EQ(r.per_type, expected);
}

/// Same shape as replay(), but elastic: anti-entropy runs from the start,
/// one endpoint joins at t=2.5s and another leaves at t=4.5s, mid-workload.
/// Pins the whole membership machinery — migration order, state streaming,
/// new-epoch replica construction, digest/repair rounds — to a fixed-seed
/// outcome.
ReplayResult replay_churn(std::uint64_t seed) {
  constexpr std::uint32_t kFiles = 60;
  ShardedClusterConfig cfg;
  cfg.endpoints = 6;
  cfg.replication = 3;
  cfg.batching = true;
  cfg.seed = seed;
  cfg.sync_sizes();
  cfg.anti_entropy_period = sec(1);
  ShardedCluster cluster(cfg);
  cluster.place(1, kFiles);

  apps::KvStore kv(cluster,
                   apps::KvStoreOptions{.buckets = kFiles, .first_file = 1});
  apps::KvWorkloadParams wl;
  wl.clients = 8;
  wl.interval = msec(250);
  wl.duration = sec(6);
  wl.keyspace = 240;
  wl.zipf_s = 0.9;
  apps::KvWorkload workload(kv, cluster.sim(), wl, seed ^ 0xBEEF);
  workload.start();

  cluster.run_until(sec(2) + msec(500));
  const MembershipChange joined = cluster.add_endpoint();
  cluster.run_until(sec(4) + msec(500));
  const MembershipChange left = cluster.remove_endpoint(2);
  cluster.run_until(sec(6) + sec(10));

  ReplayResult r;
  r.puts = kv.puts();
  for (FileId f = 1; f <= kFiles; ++f) {
    if (cluster.converged(f)) ++r.converged;
    core::IdeaNode* coord = cluster.replica_at_rank(f, 0);
    if (coord != nullptr) {
      r.digest ^= coord->store().content_digest() * (f * 2654435761ull);
    }
  }
  // Fold the membership reports in so a change to migration accounting
  // shows up even if the replica contents happen to survive it.
  r.digest ^= mix64(0x10 + joined.files_migrated) ^
              mix64(0x20 + joined.state_updates) ^
              mix64(0x30 + left.files_migrated) ^
              mix64(0x40 + left.state_updates);
  r.logical_messages = cluster.batching()->stats().logical_messages;
  r.wire_messages = cluster.wire_counters().total_messages();
  r.per_type = cluster.batching()->counters().by_type();
  return r;
}

TEST(ShardedClusterDeterminism, ChurnReplayIsInternallyReproducible) {
  const ReplayResult a = replay_churn(2007);
  const ReplayResult b = replay_churn(2007);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.logical_messages, b.logical_messages);
  EXPECT_EQ(a.wire_messages, b.wire_messages);
  EXPECT_EQ(a.per_type, b.per_type);
}

TEST(ShardedClusterDeterminism, ChurnSeed2007MatchesCapturedRun) {
  // Captured from the run that introduced elastic membership (PR 3).  A
  // divergence means the join/leave/anti-entropy machinery changed
  // behavior; if intentional, re-capture and say so in the PR.
  const ReplayResult r = replay_churn(2007);
  EXPECT_EQ(r.puts, 188u);
  EXPECT_EQ(r.converged, 60u);
  EXPECT_EQ(r.digest, 2514054996571215718ull);
  EXPECT_EQ(r.logical_messages, 1612u);
  EXPECT_EQ(r.wire_messages, 859u);
  const Golden expected{
      {"shard.digest", 581},  {"shard.migrate", 76},
      {"shard.repair", 579},  {"shard.replicate", 376},
  };
  EXPECT_EQ(r.per_type, expected);
}

/// Crash-stop variant: anti-entropy and periodic incremental checkpoints
/// run from the start; one endpoint crashes at t=2.5s (all volatile state
/// and in-flight traffic lost) and restarts at t=4.5s, recovering from its
/// durable checkpoint plus anti-entropy.  Pins the entire fault pipeline —
/// crash teardown order, checkpoint contents, restart reconciliation,
/// gap-healing digest/repair rounds — to a fixed-seed outcome.
ReplayResult replay_crash(std::uint64_t seed) {
  constexpr std::uint32_t kFiles = 60;
  ShardedClusterConfig cfg;
  cfg.endpoints = 6;
  cfg.replication = 3;
  cfg.batching = true;
  cfg.seed = seed;
  cfg.sync_sizes();
  cfg.anti_entropy_period = sec(1);
  cfg.checkpoint.engine = replica::CheckpointEngineKind::kIncremental;
  cfg.checkpoint.period = sec(1);
  ShardedCluster cluster(cfg);
  cluster.place(1, kFiles);

  apps::KvStore kv(cluster,
                   apps::KvStoreOptions{.buckets = kFiles, .first_file = 1});
  apps::KvWorkloadParams wl;
  wl.clients = 8;
  wl.interval = msec(250);
  wl.duration = sec(6);
  wl.keyspace = 240;
  wl.zipf_s = 0.9;
  apps::KvWorkload workload(kv, cluster.sim(), wl, seed ^ 0xBEEF);
  workload.start();

  cluster.run_until(sec(2) + msec(500));
  const CrashReport crash = cluster.crash_endpoint(2);
  cluster.run_until(sec(4) + msec(500));
  const RecoveryReport recovery = cluster.restart_endpoint(2);
  cluster.run_until(sec(6) + sec(10));

  ReplayResult r;
  r.puts = kv.puts();
  for (FileId f = 1; f <= kFiles; ++f) {
    if (cluster.converged(f)) ++r.converged;
    core::IdeaNode* coord = cluster.replica_at_rank(f, 0);
    if (coord != nullptr) {
      r.digest ^= coord->store().content_digest() * (f * 2654435761ull);
    }
  }
  // Fold the fault reports in so a change to crash accounting or recovery
  // sourcing shows up even if the replica contents happen to survive it.
  r.digest ^= mix64(0x50 + crash.groups_affected) ^
              mix64(0x60 + crash.volatile_updates_lost) ^
              mix64(0x70 + recovery.checkpoint_updates) ^
              mix64(0x80 + recovery.reconciled_updates) ^
              mix64(0x90 + recovery.gap_updates) ^
              mix64(0xA0 + recovery.files_recovered);
  r.logical_messages = cluster.batching()->stats().logical_messages;
  r.wire_messages = cluster.wire_counters().total_messages();
  r.per_type = cluster.batching()->counters().by_type();
  return r;
}

TEST(ShardedClusterDeterminism, CrashReplayIsInternallyReproducible) {
  const ReplayResult a = replay_crash(2007);
  const ReplayResult b = replay_crash(2007);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.logical_messages, b.logical_messages);
  EXPECT_EQ(a.wire_messages, b.wire_messages);
  EXPECT_EQ(a.per_type, b.per_type);
}

TEST(ShardedClusterDeterminism, CrashSeed2007MatchesCapturedRun) {
  // Captured from the run that introduced the crash-stop fault model.  A
  // divergence means crash teardown, checkpointing or recovery changed
  // behavior; if intentional, re-capture and say so in the PR.
  const ReplayResult r = replay_crash(2007);
  EXPECT_EQ(r.puts, 188u);
  EXPECT_EQ(r.converged, 60u);  // crash+restart heals every file
  // One w = 1 put (file 34, the crashed coordinator's seq 3, applied
  // 22.6 ms before the crash) still has both pushes in flight at the
  // crash, so crash-stop loses it and the restart reconciles one
  // own-writer update.  Every wire message draws its delay from one
  // shared jitter stream, so a change in the message count before the
  // crash can decide that race the other way and move this digest.
  EXPECT_EQ(r.digest, 1342812657335665113ull);
  EXPECT_EQ(r.logical_messages, 1486u);
  EXPECT_EQ(r.wire_messages, 710u);
  // No shard.migrate: restart recovery streams deltas over digest/repair,
  // never the membership-migration path.
  const Golden expected{
      {"shard.digest", 564},
      {"shard.repair", 546},
      {"shard.replicate", 376},
  };
  EXPECT_EQ(r.per_type, expected);
}

/// Adaptive variant: the ConsistencyController is on, sessions opt in,
/// and the open-loop workload engine drives a hot writer plus adaptive
/// bounded readers.  Pins the entire adaptation pipeline — feedback
/// accounting, tick decision order, escalation/relax/renegotiate rules,
/// and the serve-time overrides they produce — to a fixed-seed outcome.
/// Note the goldens in the tests ABOVE are untouched: with adapt.enabled
/// off (the default) no controller exists and routing is byte-identical.
struct AdaptiveReplay {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t stale_reads = 0;
  std::uint64_t escalated_reads = 0;
  std::uint64_t adapted_reads = 0;
  std::uint64_t content_digest = 0;
  std::uint64_t decision_digest = 0;
  std::vector<std::string> decisions;
  adapt::ControllerStats ctl;
};

AdaptiveReplay replay_adaptive(std::uint64_t seed) {
  constexpr std::uint32_t kFiles = 24;
  ShardedClusterConfig cfg;
  cfg.endpoints = 6;
  cfg.replication = 3;
  cfg.seed = seed;
  cfg.anti_entropy_period = msec(500);
  cfg.sync_sizes();
  cfg.freshness_hint_ttl = msec(800);
  cfg.adapt.enabled = true;
  ShardedCluster cluster(cfg);
  cluster.place(1, kFiles);

  client::Client client(cluster);
  client::ClientSession writer = client.session({.origin = 0});
  std::vector<client::ClientSession> readers;
  for (NodeId origin : {NodeId{1}, NodeId{3}, NodeId{5}}) {
    readers.push_back(client.session(
        {.level = client::ConsistencyLevel::bounded_staleness(2),
         .origin = origin,
         .adaptive = true,
         .tenant = 1,
         .declare_slo = origin == 1,
         .slo = adapt::Slo{2, msec(40)}}));
  }

  // Tenant 0: a hot writer hammering 8 keys — replicas lag between
  // anti-entropy rounds, so bounded readers escalate and the controller
  // sees contention.  Tenant 1: adaptive readers over the full keyspace —
  // the cold tail relaxes to Eventual; the tight 40 ms latency clause
  // forces bound renegotiation.
  workload::TenantSpec hot;
  hot.name = "hot";
  hot.keys = 8;
  hot.read_fraction = 0.0;
  hot.rate = {{0, 60.0}};
  workload::TenantSpec read;
  read.name = "read";
  read.keys = kFiles;
  read.read_fraction = 1.0;
  read.rate = {{0, 120.0}};
  read.zipf = {{0, 1.1}};
  read.origins = {1, 3, 5};

  AdaptiveReplay r;
  workload::OpenLoopEngine engine(
      cluster.sim(), workload::EngineOptions{msec(50), sec(6), seed ^ 0xADA},
      {hot, read}, [&](const workload::Op& op) {
        const FileId f = 1 + static_cast<FileId>(op.key);
        if (!op.is_read) {
          writer.put(f, "w" + std::to_string(op.index), 1.0);
          ++r.writes;
          return;
        }
        const std::size_t at = op.origin == 1 ? 0 : (op.origin == 3 ? 1 : 2);
        const client::OpHandle<client::ReadResult> h = readers[at].read(f);
        if (!h.ok()) return;
        ++r.reads;
        if (h->staleness_versions > 0) ++r.stale_reads;
        if (h->escalated) ++r.escalated_reads;
      });
  engine.start();
  // Drain past the workload so post-traffic windows relax the now-idle
  // files — the quiet-window rule is part of the pinned history.
  cluster.run_until(sec(6) + sec(4));

  for (FileId f = 1; f <= kFiles; ++f) {
    core::IdeaNode* coord = cluster.replica_at_rank(f, 0);
    if (coord != nullptr) {
      r.content_digest ^= coord->store().content_digest() * (f * 2654435761ull);
    }
  }
  r.adapted_reads = cluster.router().stats().adapted_reads;
  r.ctl = cluster.controller()->stats();
  r.decision_digest = cluster.controller()->decision_digest();
  r.decisions = cluster.controller()->decision_log();
  return r;
}

TEST(ShardedClusterDeterminism, AdaptiveReplayIsInternallyReproducible) {
  const AdaptiveReplay a = replay_adaptive(2007);
  const AdaptiveReplay b = replay_adaptive(2007);
  EXPECT_EQ(a.reads, b.reads);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.content_digest, b.content_digest);
  EXPECT_EQ(a.adapted_reads, b.adapted_reads);
  EXPECT_EQ(a.decisions, b.decisions);  // byte-identical decision log
  EXPECT_EQ(a.decision_digest, b.decision_digest);
  EXPECT_EQ(a.ctl.decisions, b.ctl.decisions);
  EXPECT_EQ(a.ctl.escalations, b.ctl.escalations);
  EXPECT_EQ(a.ctl.relaxations, b.ctl.relaxations);
  EXPECT_EQ(a.ctl.renegotiations, b.ctl.renegotiations);
}

TEST(ShardedClusterDeterminism, AdaptiveSeed2007MatchesCapturedRun) {
  // Captured from the run that introduced the adaptive controller.  A
  // divergence means the feedback plumbing, tick rules, or decision-log
  // format changed behavior; if intentional, re-capture and say so.
  const AdaptiveReplay r = replay_adaptive(2007);
  EXPECT_GT(r.ctl.escalations, 0u);
  EXPECT_GT(r.ctl.relaxations, 0u);
  EXPECT_GT(r.adapted_reads, 0u);
  EXPECT_EQ(r.reads, 755u);
  EXPECT_EQ(r.writes, 353u);
  EXPECT_EQ(r.content_digest, 6857582279335632097ull);
  EXPECT_EQ(r.ctl.decisions, 29u);
  EXPECT_EQ(r.decision_digest, 16150049475129751827ull);
}

TEST(ShardedClusterDeterminism, ReplayIsInternallyReproducible) {
  // Same seed, same process: two replays must agree with themselves (guards
  // against nondeterminism that global interning state could introduce).
  const ReplayResult a = replay(99);
  const ReplayResult b = replay(99);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.logical_messages, b.logical_messages);
  EXPECT_EQ(a.per_type, b.per_type);
}

}  // namespace
}  // namespace idea::shard
