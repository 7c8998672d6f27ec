/// \file determinism_obs_test.cpp
/// \brief Observability must be a pure observer: the fixed-seed replay
///        goldens captured in tests/shard/determinism_test.cpp must hold
///        byte-for-byte with metrics AND tracing enabled, and two obs-on
///        runs of the same seed must export byte-identical metric and
///        trace JSON.
///
/// If this file fails while tests/shard/determinism_test.cpp passes, the
/// observability layer perturbed protocol behavior — an extra message, a
/// consumed RNG draw, a changed event ordering.  That is always a bug in
/// the obs layer, never a golden to re-capture.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "apps/kvstore.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::shard {
namespace {

struct ObsReplayResult {
  std::uint64_t puts = 0;
  std::size_t converged = 0;
  std::uint64_t digest = 0;
  std::uint64_t logical_messages = 0;
  std::uint64_t wire_messages = 0;
  std::map<std::string, std::uint64_t> per_type;
  std::string metrics_json;
  std::string trace_json;
  std::uint64_t traces = 0;
};

/// Mirrors determinism_test.cpp's replay() exactly, with observability on.
ObsReplayResult replay_with_obs(std::uint64_t seed) {
  constexpr std::uint32_t kFiles = 120;
  ShardedClusterConfig cfg;
  cfg.endpoints = 8;
  cfg.replication = 3;
  cfg.batching = true;
  cfg.seed = seed;
  cfg.sync_sizes();
  cfg.observability.enabled = true;
  cfg.observability.tracing = true;
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

  ObsReplayResult r;
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
  r.metrics_json = cluster.obs()->export_metrics_json();
  r.trace_json = cluster.obs()->tracer()->export_chrome_trace();
  r.traces = cluster.obs()->tracer()->traces_started();
  return r;
}

/// Mirrors determinism_test.cpp's replay_churn() exactly, with
/// observability on — membership churn, migration streams and
/// anti-entropy repair all run under full instrumentation.
ObsReplayResult replay_churn_with_obs(std::uint64_t seed) {
  constexpr std::uint32_t kFiles = 60;
  ShardedClusterConfig cfg;
  cfg.endpoints = 6;
  cfg.replication = 3;
  cfg.batching = true;
  cfg.seed = seed;
  cfg.sync_sizes();
  cfg.anti_entropy_period = sec(1);
  cfg.observability.enabled = true;
  cfg.observability.tracing = true;
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

  ObsReplayResult r;
  r.puts = kv.puts();
  for (FileId f = 1; f <= kFiles; ++f) {
    if (cluster.converged(f)) ++r.converged;
    core::IdeaNode* coord = cluster.replica_at_rank(f, 0);
    if (coord != nullptr) {
      r.digest ^= coord->store().content_digest() * (f * 2654435761ull);
    }
  }
  r.digest ^= mix64(0x10 + joined.files_migrated) ^
              mix64(0x20 + joined.state_updates) ^
              mix64(0x30 + left.files_migrated) ^
              mix64(0x40 + left.state_updates);
  r.logical_messages = cluster.batching()->stats().logical_messages;
  r.wire_messages = cluster.wire_counters().total_messages();
  r.per_type = cluster.batching()->counters().by_type();
  r.metrics_json = cluster.obs()->export_metrics_json();
  r.trace_json = cluster.obs()->tracer()->export_chrome_trace();
  r.traces = cluster.obs()->tracer()->traces_started();
  return r;
}

using Golden = std::map<std::string, std::uint64_t>;

TEST(ObservabilityDeterminism, Seed2007GoldensHoldWithObsEnabled) {
  // The exact goldens from tests/shard/determinism_test.cpp — metrics
  // recording and trace minting must not shift a single message or draw.
  const ObsReplayResult r = replay_with_obs(2007);
  EXPECT_EQ(r.puts, 387u);
  EXPECT_EQ(r.converged, 120u);
  EXPECT_EQ(r.digest, 0xd4cf90538821fb05ull);
  EXPECT_EQ(r.logical_messages, 774u);
  EXPECT_EQ(r.wire_messages, 774u);
  const Golden expected{{"shard.replicate", 774}};
  EXPECT_EQ(r.per_type, expected);
  // And the instrumentation actually observed the run.
  EXPECT_GT(r.traces, 0u);
  EXPECT_NE(r.metrics_json.find("session.puts"), std::string::npos);
}

TEST(ObservabilityDeterminism, ChurnSeed2007GoldensHoldWithObsEnabled) {
  const ObsReplayResult r = replay_churn_with_obs(2007);
  EXPECT_EQ(r.puts, 188u);
  EXPECT_EQ(r.converged, 60u);
  EXPECT_EQ(r.digest, 2514054996571215718ull);
  EXPECT_EQ(r.logical_messages, 1092u);
  EXPECT_EQ(r.wire_messages, 767u);
  const Golden expected{
      {"shard.digest", 320},  {"shard.migrate", 76},
      {"shard.repair", 320},  {"shard.replicate", 376},
  };
  EXPECT_EQ(r.per_type, expected);
  // Churn exercises the AE + migration instrumentation.
  EXPECT_NE(r.metrics_json.find("ae.rounds"), std::string::npos);
  EXPECT_NE(r.metrics_json.find("shard.migrations"), std::string::npos);
}

TEST(ObservabilityDeterminism, ExportsAreByteIdenticalAcrossRuns) {
  // Two same-seed obs-on runs in one process: every exported byte —
  // metric dumps and chrome trace — must match.  Guards against iteration
  // order leaking from interning tables or hash maps into the export.
  const ObsReplayResult a = replay_with_obs(99);
  const ObsReplayResult b = replay_with_obs(99);
  EXPECT_EQ(a.puts, b.puts);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.traces, b.traces);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
  EXPECT_FALSE(a.metrics_json.empty());
  EXPECT_FALSE(a.trace_json.empty());
}

TEST(ObservabilityDeterminism, ChurnExportsAreByteIdenticalAcrossRuns) {
  const ObsReplayResult a = replay_churn_with_obs(2007);
  const ObsReplayResult b = replay_churn_with_obs(2007);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.trace_json, b.trace_json);
}

}  // namespace
}  // namespace idea::shard
