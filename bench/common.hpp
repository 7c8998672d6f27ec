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

/// Where a bench writes its JSON: the file --json names, else `committed`
/// (the capture's name, relative to the working directory) on a full-size
/// run.  A --smoke run writes none unless --json names one, so a smoke run
/// from the repo root leaves the committed capture alone.  Empty means
/// write none.
inline std::string json_out(const Flags& flags, bool smoke,
                            const std::string& committed) {
  return flags.get_string("json", smoke ? std::string() : committed);
}

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
// Workload-shape helpers shared by the sharded-cluster benches, whose
// load all comes from workload::OpenLoopEngine.
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

/// The kv benches' load: one open-loop write tenant over `keys` keys at
/// `ops_per_sec`, Zipf(`zipf_s`) popularity (0 = uniform).
inline workload::TenantSpec kv_write_tenant(std::uint32_t keys,
                                            double ops_per_sec,
                                            double zipf_s) {
  workload::TenantSpec writes;
  writes.name = "kv-writers";
  writes.keys = keys;
  writes.read_fraction = 0.0;  // TenantSpec's default is all reads
  writes.rate = steady_rate(ops_per_sec);
  writes.zipf = steady_zipf(zipf_s);
  return writes;
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
// The KvStore macro run that hotpath, obs_overhead and shard_scalability
// all time, and the heal count recovery and membership_churn share.
// ---------------------------------------------------------------------

struct KvMacroResult {
  double wall_ms = 0.0;  ///< Construction through sampling and `inspect`.
  std::uint64_t puts_applied = 0;
  std::uint64_t logical_messages = 0;
  std::uint64_t wire_messages = 0;
  double batch_factor = 1.0;       ///< Logical messages per envelope.
  double avg_queue_wait_ms = 0.0;  ///< Mean batching delay per message.
  double converged_pct = 0.0;      ///< Over the sampled files.
  std::uint64_t digest_xor = 0;    ///< XOR of sampled coordinator digests.
};

/// One KvStore macro run on `cfg` (normally macro_config()): files
/// 1..`files` placed, one open-loop write tenant at 8 ops/s per endpoint
/// (Zipf(0.9) over four keys per file) for `sim_duration`, then 10 s to
/// drain.  Every 7th file is sampled for convergence and its rank-0
/// digest.  `inspect` sees the cluster last, still on the clock.
inline KvMacroResult run_kv_macro(
    const shard::ShardedClusterConfig& cfg, std::uint32_t files,
    SimDuration sim_duration,
    const std::function<void(shard::ShardedCluster&)>& inspect = {}) {
  const auto start = WallClock::now();
  shard::ShardedCluster cluster(cfg);

  cluster.place(1, files);
  apps::KvStore kv(cluster,
                   apps::KvStoreOptions{.buckets = files, .first_file = 1});
  workload::OpenLoopEngine engine(
      cluster.sim(),
      workload::EngineOptions{0, sim_duration, cfg.seed ^ 0xBEEF},
      {kv_write_tenant(files * 4, 8.0 * cfg.endpoints, 0.9)},
      [&kv](const workload::Op& op) { kv.issue(op); });
  engine.start();
  cluster.run_for(sim_duration + sec(10));

  KvMacroResult r;
  r.puts_applied = kv.puts();
  r.wire_messages = cluster.wire_counters().total_messages();
  r.logical_messages = r.wire_messages;
  if (const net::BatchingTransport* batching = cluster.batching()) {
    r.logical_messages = batching->stats().logical_messages;
    r.batch_factor = batching->stats().batch_factor();
    r.avg_queue_wait_ms = batching->stats().avg_queue_wait_usec() / 1000.0;
  }
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

/// Files in 1..`files` whose replica group has not converged.
inline std::size_t diverged_files(shard::ShardedCluster& cluster,
                                  std::uint32_t files) {
  std::size_t diverged = 0;
  for (FileId f = 1; f <= files; ++f) {
    if (!cluster.converged(f)) ++diverged;
  }
  return diverged;
}

/// Periods of `period` until no group diverges; -1 if `cap` is not enough.
inline int periods_to_heal(shard::ShardedCluster& cluster,
                           std::uint32_t files, SimDuration period,
                           int cap) {
  for (int p = 0; p <= cap; ++p) {
    if (diverged_files(cluster, files) == 0) return p;
    cluster.run_for(period);
  }
  return -1;
}

}  // namespace idea::bench
