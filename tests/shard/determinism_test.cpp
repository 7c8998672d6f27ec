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
/// held, and the detect.*/gossip.*/ransub.* traffic left the counts.  The
/// crash replay's counts were re-captured again when a restart stopped
/// rebuilding the survivors' ranks: survivor traffic in flight at the
/// restart is no longer fenced by a new group epoch, and the digest held.
/// The churn, crash and adaptive replays were re-captured once more when
/// a landed push began to settle its anti-entropy pair and rounds moved to
/// the star around the acting coordinator, which leaves dark ranks out:
/// fewer digests and repairs (the churn replay's puts, convergence and
/// content digest held; the crash digest moved with the jitter race its
/// test names; the adaptive replay's reads, writes and content digest
/// held, its decisions did not).  The crash replay's counts were
/// re-captured once more when a restarted follower began to take its
/// matches as current after the restart's imports, and a push-back whose
/// counts equal the receiver's began to match the pair: the restarted
/// ranks no longer run a round of their own, so fewer digests and repairs
/// (the digest held).  The plain, churn and crash replays were re-captured
/// once more when their load moved from fixed-tick scripted clients to one
/// open-loop workload::OpenLoopEngine write tenant at the same aggregate
/// rate (tests/shard/replays.hpp): a Poisson schedule issues other ops, so
/// every put count, content digest and total message count moved (the
/// churn replay's 320 digests held), and every file still converges.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "client/session.hpp"
#include "replays.hpp"
#include "shard/sharded_cluster.hpp"
#include "workload/engine.hpp"

namespace idea::shard {
namespace {

using replays::ReplayResult;
using replays::replay;
using replays::replay_churn;
using replays::replay_crash;

using Golden = std::map<std::string, std::uint64_t>;

TEST(ShardedClusterDeterminism, Seed2007MatchesPreRefactorRun) {
  const ReplayResult r = replay(2007);
  EXPECT_EQ(r.puts, 362u);
  EXPECT_EQ(r.converged, 120u);
  EXPECT_EQ(r.digest, 3378101499864864736ull);
  // A rank runs no detection, gossip or RanSub: the pushes are the
  // whole traffic, and each goes out alone.
  EXPECT_EQ(r.logical_messages, 724u);
  EXPECT_EQ(r.wire_messages, 724u);
  const Golden expected{{"shard.replicate", 724}};
  EXPECT_EQ(r.per_type, expected);
}

TEST(ShardedClusterDeterminism, Seed555MatchesPreRefactorRun) {
  const ReplayResult r = replay(555);
  EXPECT_EQ(r.puts, 370u);
  EXPECT_EQ(r.converged, 120u);
  EXPECT_EQ(r.digest, 16329914551967047446ull);
  EXPECT_EQ(r.logical_messages, 740u);
  EXPECT_EQ(r.wire_messages, 740u);
  const Golden expected{{"shard.replicate", 740}};
  EXPECT_EQ(r.per_type, expected);
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
  EXPECT_EQ(r.puts, 179u);
  EXPECT_EQ(r.converged, 60u);
  EXPECT_EQ(r.digest, 525567173011186477ull);
  EXPECT_EQ(r.logical_messages, 1082u);
  EXPECT_EQ(r.wire_messages, 763u);
  const Golden expected{
      {"shard.digest", 320},  {"shard.migrate", 80},
      {"shard.repair", 324},  {"shard.replicate", 358},
  };
  EXPECT_EQ(r.per_type, expected);
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
  EXPECT_EQ(r.puts, 179u);
  EXPECT_EQ(r.converged, 60u);  // crash+restart heals every file
  // No push races the crash here: the crashed coordinator's last put
  // (file 10, 36.6 ms before the crash) has reached both followers, so
  // the restart reconciles all six own-writer updates written since the
  // last checkpoint.  Every wire message draws its delay from one shared
  // jitter stream, so a change in the message count before the crash can
  // leave such a push in flight, lose the put with the crash, and move
  // this digest.
  EXPECT_EQ(r.digest, 3884382930934112275ull);
  EXPECT_EQ(r.logical_messages, 949u);
  EXPECT_EQ(r.wire_messages, 629u);
  // No shard.migrate: restart recovery streams deltas over digest/repair,
  // never the membership-migration path.
  const Golden expected{
      {"shard.digest", 277},
      {"shard.repair", 314},
      {"shard.replicate", 358},
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
  EXPECT_EQ(r.ctl.decisions, 33u);
  EXPECT_EQ(r.decision_digest, 8965686451558105736ull);
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
