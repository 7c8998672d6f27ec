#pragma once
/// \file common.hpp
/// \brief Shared setup for the experiment harnesses: the paper's deployment
///        (40 Planet-Lab-like nodes, four concurrent writers of one file)
///        and helpers to print the series/rows each figure/table reports.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "apps/kvstore.hpp"
#include "apps/workload.hpp"
#include "core/cluster.hpp"
#include "net/sim_transport.hpp"
#include "shard/sharded_cluster.hpp"
#include "util/flags.hpp"
#include "util/table.hpp"
#include "workload/engine.hpp"

namespace idea::bench {

/// The four writers used throughout §6 (spread across the coordinate plane).
inline const std::vector<NodeId> kWriters{3, 11, 22, 37};

/// Paper-scale cluster: 40 nodes; WAN latencies tuned so that one
/// sequential resolution hop costs ~100 ms — the per-member cost the
/// paper's Formula 2 reports (104.7 ms).
inline core::ClusterConfig paper_cluster(std::uint64_t seed) {
  core::ClusterConfig cfg;
  cfg.nodes = 40;
  cfg.seed = seed;
  cfg.latency.diameter_delay = msec(120);
  cfg.latency.processing_floor = msec(2);
  cfg.sync_sizes();
  cfg.idea.maxima = vv::TripleMaxima{250, 250, 250};
  cfg.idea.detection_period = sec(1);
  cfg.idea.resolution.collect_processing = msec(8);
  cfg.idea.resolution.cpu_per_send = usec(150);
  return cfg;
}

/// Issue one write burst from every writer (all conflicting, per §6).
inline void write_burst(core::IdeaCluster& cluster, int index,
                        std::uint64_t seed) {
  auto gen = apps::make_stroke_generator(seed);
  for (NodeId w : kWriters) {
    auto [content, meta] = gen(w, index);
    cluster.node(w).write(std::move(content), meta);
  }
}

/// Worst ("view from the user") and mean ("system average") level across
/// the writers.
struct LevelSnapshot {
  double worst = 1.0;
  double average = 0.0;
};

inline LevelSnapshot snapshot_levels(core::IdeaCluster& cluster) {
  LevelSnapshot s;
  for (NodeId w : kWriters) {
    const double lv = cluster.node(w).current_level();
    s.worst = std::min(s.worst, lv);
    s.average += lv / static_cast<double>(kWriters.size());
  }
  return s;
}

/// The macro deployment the perf benches share (32 endpoints x 2000
/// files in the headline runs): k = 3 replica groups and batching on.
inline shard::ShardedClusterConfig macro_config(std::uint32_t endpoints,
                                                std::uint64_t seed) {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = endpoints;
  cfg.replication = 3;
  cfg.batching = true;
  cfg.seed = seed;
  cfg.sync_sizes();
  return cfg;
}

// ---------------------------------------------------------------------
// Workload-shape helpers shared by the sharded-cluster benches (the Zipf
// and arrival-schedule setup read_policies and shard_scalability used to
// duplicate, now expressed through workload::OpenLoopEngine).
// ---------------------------------------------------------------------

/// Scripted full-loss windows: `length` of 100% loss every `every`,
/// starting at `first`, while the window still fits before `end`.
/// Replication pushes inside a window drop, so written files' replicas
/// lag their coordinator until anti-entropy repairs them.
inline void add_loss_windows(net::SimTransport& transport, SimTime first,
                             SimTime end, SimDuration every,
                             SimDuration length) {
  for (SimTime t = first; t + length < end; t += every) {
    transport.add_drop_window(t, t + length);
  }
}

/// A constant arrival rate for the whole run.
inline std::vector<workload::RatePhase> steady_rate(double ops_per_sec) {
  return {{0, ops_per_sec}};
}

/// A constant Zipf skew for the whole run.
inline std::vector<workload::ZipfPhase> steady_zipf(double s) {
  return {{0, s}};
}

/// Client attach points 0..n-1 (one per endpoint).
inline std::vector<NodeId> all_origins(std::uint32_t n) {
  std::vector<NodeId> origins(n);
  for (std::uint32_t i = 0; i < n; ++i) origins[i] = i;
  return origins;
}

inline void print_header(const std::string& title) {
  std::printf("\n================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================\n");
}

// ---------------------------------------------------------------------
// Wall-clock timing helpers shared by the perf benches (hotpath,
// obs_overhead and parallel_scalability report wall time the same way).
// ---------------------------------------------------------------------

using WallClock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double secs_since(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

/// Milliseconds elapsed since `start`.
inline double ms_since(WallClock::time_point start) {
  return 1000.0 * secs_since(start);
}

/// Median of a sample set (upper median for even sizes — what the perf
/// benches have always reported).  Takes a copy so callers keep their
/// run order.
inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values.empty() ? 0.0 : values[values.size() / 2];
}

// ---------------------------------------------------------------------
// The KvStore macro run that hotpath and obs_overhead both time.
// ---------------------------------------------------------------------

struct KvMacroResult {
  double wall_ms = 0.0;  ///< Construction through sampling and `inspect`.
  std::uint64_t puts_applied = 0;
  std::uint64_t logical_messages = 0;
  std::uint64_t wire_messages = 0;
  double converged_pct = 0.0;    ///< Over the sampled files.
  std::uint64_t digest_xor = 0;  ///< XOR of sampled coordinator digests.
};

/// One KvStore macro run on `cfg` (normally macro_config()): files
/// 1..`files` placed, two Zipf(0.9) clients per endpoint issuing every
/// 250 ms over four keys per file for `sim_duration`, then 10 s to drain.
/// Every 7th file is sampled for convergence and its rank-0 digest.
/// `inspect` sees the cluster last, still on the clock.
inline KvMacroResult run_kv_macro(
    const shard::ShardedClusterConfig& cfg, std::uint32_t files,
    SimDuration sim_duration,
    const std::function<void(shard::ShardedCluster&)>& inspect = {}) {
  const auto start = WallClock::now();
  shard::ShardedCluster cluster(cfg);

  cluster.place(1, files);
  apps::KvStoreOptions kv_options;
  kv_options.buckets = files;
  kv_options.first_file = 1;
  apps::KvStore kv(cluster, kv_options);
  apps::KvWorkloadParams wl;
  wl.clients = cfg.endpoints * 2;
  wl.interval = msec(250);
  wl.duration = sim_duration;
  wl.keyspace = files * 4;
  wl.zipf_s = 0.9;
  apps::KvWorkload workload(kv, cluster.sim(), wl, cfg.seed ^ 0xBEEF);
  workload.start();
  cluster.run_for(sim_duration + sec(10));

  KvMacroResult r;
  r.puts_applied = kv.puts();
  r.wire_messages = cluster.wire_counters().total_messages();
  r.logical_messages = cluster.batching() != nullptr
                           ? cluster.batching()->stats().logical_messages
                           : r.wire_messages;
  std::size_t sampled = 0, converged = 0;
  for (FileId f = 1; f <= files; f += 7) {
    ++sampled;
    if (cluster.converged(f)) ++converged;
    core::IdeaNode* coord = cluster.replica_at_rank(f, 0);
    if (coord != nullptr) r.digest_xor ^= coord->store().content_digest();
  }
  r.converged_pct =
      100.0 * static_cast<double>(converged) / static_cast<double>(sampled);
  if (inspect) inspect(cluster);
  r.wall_ms = ms_since(start);
  return r;
}

}  // namespace idea::bench
