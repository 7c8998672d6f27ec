#pragma once
/// \file replays.hpp
/// \brief The fixed-seed kv replays the determinism goldens pin, built
///        once and shared by tests/shard/determinism_test.cpp (which pins
///        their outcomes) and tests/obs/determinism_obs_test.cpp (which
///        runs them with observability on and requires the same outcome).
///
/// Each replay places a cluster's files, drives them with one open-loop
/// write tenant (Zipf(0.9) over four keys per file, for the first 6 s),
/// runs a scripted scenario, and then reads every file's convergence, a
/// fold of every coordinator's content digest, and the message counts.

#include <cstdint>
#include <map>
#include <string>

#include "apps/kvstore.hpp"
#include "shard/sharded_cluster.hpp"
#include "workload/engine.hpp"

namespace idea::shard::replays {

struct ReplayResult {
  std::uint64_t puts = 0;
  std::size_t converged = 0;
  std::uint64_t digest = 0;
  std::uint64_t logical_messages = 0;
  std::uint64_t wire_messages = 0;
  std::map<std::string, std::uint64_t> per_type;
  // Filled only when the replay ran with observability on.
  std::string metrics_json;
  std::string trace_json;
  std::uint64_t traces = 0;
};

/// How long the write tenant issues.
inline constexpr SimDuration kLoadFor = sec(6);

/// k = 3 and batching on; `obs` turns on metrics and tracing.
inline ShardedClusterConfig replay_config(std::uint32_t endpoints,
                                          std::uint64_t seed, bool obs) {
  ShardedClusterConfig cfg;
  cfg.endpoints = endpoints;
  cfg.replication = 3;
  cfg.batching = true;
  cfg.seed = seed;
  cfg.sync_sizes();
  cfg.observability.enabled = obs;
  cfg.observability.tracing = obs;
  return cfg;
}

/// The write tenant: `ops_per_sec`, Zipf(0.9) over four keys per file.
inline workload::TenantSpec kv_writers(std::uint32_t files,
                                       double ops_per_sec) {
  workload::TenantSpec writes;
  writes.name = "kv-writers";
  writes.keys = 4 * files;
  writes.read_fraction = 0.0;
  writes.rate = {{0, ops_per_sec}};
  writes.zipf = {{0, 0.9}};
  return writes;
}

/// A KvStore over files 1..`files` and the write tenant that drives it.
/// Construct it at time 0, after placing the files.
struct KvLoad {
  KvLoad(ShardedCluster& cluster, std::uint32_t files, double ops_per_sec,
         std::uint64_t seed)
      : kv(cluster, apps::KvStoreOptions{.buckets = files, .first_file = 1}),
        engine(cluster.sim(),
               workload::EngineOptions{0, kLoadFor, seed ^ 0xBEEF},
               {kv_writers(files, ops_per_sec)},
               [this](const workload::Op& op) { kv.issue(op); }) {
    engine.start();
  }
  KvLoad(const KvLoad&) = delete;  // the issuer holds `this`
  KvLoad& operator=(const KvLoad&) = delete;

  apps::KvStore kv;
  workload::OpenLoopEngine engine;
};

/// What every replay reads at its end.
inline ReplayResult collect(ShardedCluster& cluster, const KvLoad& load,
                            std::uint32_t files) {
  ReplayResult r;
  r.puts = load.kv.puts();
  for (FileId f = 1; f <= files; ++f) {
    if (cluster.converged(f)) ++r.converged;
    core::IdeaNode* coord = cluster.replica_at_rank(f, 0);
    if (coord != nullptr) {
      r.digest ^= coord->store().content_digest() * (f * 2654435761ull);
    }
  }
  r.logical_messages = cluster.batching()->stats().logical_messages;
  r.wire_messages = cluster.wire_counters().total_messages();
  r.per_type = cluster.batching()->counters().by_type();
  if (cluster.obs() != nullptr) {
    r.metrics_json = cluster.obs()->export_metrics_json();
    r.trace_json = cluster.obs()->tracer()->export_chrome_trace();
    r.traces = cluster.obs()->tracer()->traces_started();
  }
  return r;
}

/// 8 endpoints, 120 files, 64 writes/s, then 10 s to settle.
inline ReplayResult replay(std::uint64_t seed, bool obs = false) {
  constexpr std::uint32_t kFiles = 120;
  ShardedCluster cluster(replay_config(8, seed, obs));
  cluster.place(1, kFiles);
  KvLoad load(cluster, kFiles, 64.0, seed);
  cluster.run_for(kLoadFor + sec(10));
  return collect(cluster, load, kFiles);
}

/// Elastic: 6 endpoints, 60 files, 32 writes/s, anti-entropy from the
/// start; one endpoint joins at t=2.5s and another leaves at t=4.5s,
/// mid-workload.  Pins the whole membership machinery — migration order,
/// state streaming, new-epoch replica construction, digest/repair rounds
/// — to a fixed-seed outcome.
inline ReplayResult replay_churn(std::uint64_t seed, bool obs = false) {
  constexpr std::uint32_t kFiles = 60;
  ShardedClusterConfig cfg = replay_config(6, seed, obs);
  cfg.anti_entropy_period = sec(1);
  ShardedCluster cluster(cfg);
  cluster.place(1, kFiles);
  KvLoad load(cluster, kFiles, 32.0, seed);

  cluster.run_until(sec(2) + msec(500));
  const MembershipChange joined = cluster.add_endpoint();
  cluster.run_until(sec(4) + msec(500));
  const MembershipChange left = cluster.remove_endpoint(2);
  cluster.run_until(kLoadFor + sec(10));

  ReplayResult r = collect(cluster, load, kFiles);
  // Fold the membership reports in so a change to migration accounting
  // shows up even if the replica contents happen to survive it.
  r.digest ^= mix64(0x10 + joined.files_migrated) ^
              mix64(0x20 + joined.state_updates) ^
              mix64(0x30 + left.files_migrated) ^
              mix64(0x40 + left.state_updates);
  return r;
}

/// Crash-stop: the churn replay's deployment with periodic incremental
/// checkpoints; one endpoint crashes at t=2.5s (all volatile state and
/// in-flight traffic lost) and restarts at t=4.5s, recovering from its
/// durable checkpoint plus anti-entropy.  Pins the entire fault pipeline
/// — crash teardown order, checkpoint contents, restart reconciliation,
/// gap-healing digest/repair rounds — to a fixed-seed outcome.
inline ReplayResult replay_crash(std::uint64_t seed) {
  constexpr std::uint32_t kFiles = 60;
  ShardedClusterConfig cfg = replay_config(6, seed, false);
  cfg.anti_entropy_period = sec(1);
  cfg.checkpoint.engine = replica::CheckpointEngineKind::kIncremental;
  cfg.checkpoint.period = sec(1);
  ShardedCluster cluster(cfg);
  cluster.place(1, kFiles);
  KvLoad load(cluster, kFiles, 32.0, seed);

  cluster.run_until(sec(2) + msec(500));
  const CrashReport crash = cluster.crash_endpoint(2);
  cluster.run_until(sec(4) + msec(500));
  const RecoveryReport recovery = cluster.restart_endpoint(2);
  cluster.run_until(kLoadFor + sec(10));

  ReplayResult r = collect(cluster, load, kFiles);
  // Fold the fault reports in so a change to crash accounting or recovery
  // sourcing shows up even if the replica contents happen to survive it.
  r.digest ^= mix64(0x50 + crash.groups_affected) ^
              mix64(0x60 + crash.volatile_updates_lost) ^
              mix64(0x70 + recovery.checkpoint_updates) ^
              mix64(0x80 + recovery.reconciled_updates) ^
              mix64(0x90 + recovery.gap_updates) ^
              mix64(0xA0 + recovery.files_recovered);
  return r;
}

}  // namespace idea::shard::replays
