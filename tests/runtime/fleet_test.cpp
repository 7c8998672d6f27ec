/// \file fleet_test.cpp
/// \brief The determinism-oracle contract of the multicore runtime: a
///        fixed-seed ShardedFleet run must produce byte-identical
///        per-endpoint digests, per-type message counts, metrics JSON and
///        operation digests whether it executes on one thread (the
///        sequential oracle — the existing single-threaded Simulator
///        kernels, nothing spawned) or on a multi-threaded WorkerPool,
///        where any worker may run any segment's epoch task.
///
/// The segment count is pinned explicitly in every scenario: results are
/// allowed to depend on (config, seed, segments) — the partition shapes
/// the rings — but NEVER on `threads`.  Scenarios cover the plain
/// workload, elastic churn (an endpoint joins and another leaves
/// mid-run), and crash/restart with durable checkpoints, all scheduled
/// through ShardedFleet::schedule_on so the fault instants land inside
/// worker-owned epochs.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "runtime/fleet.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::runtime {
namespace {

constexpr std::uint32_t kSegments = 4;
constexpr std::uint32_t kFiles = 40;

shard::ShardedClusterConfig fleet_config(std::uint32_t threads,
                                         std::uint64_t seed) {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = 16;  // 4 per segment
  cfg.replication = 3;
  cfg.seed = seed;
  cfg.idea.maxima = vv::TripleMaxima{100, 100, 100};
  cfg.idea.detection_period = sec(2);
  cfg.observability.enabled = true;
  cfg.runtime.threads = threads;
  cfg.runtime.segments = kSegments;  // pinned: never derived from threads
  cfg.sync_sizes();
  return cfg;
}

struct FleetResult {
  std::vector<std::pair<NodeId, std::uint64_t>> digests;
  std::map<std::string, std::uint64_t> messages;
  std::string metrics_json;
  std::uint64_t op_digest = 0;
  std::uint64_t local_ops = 0;
  std::uint64_t remote_ops = 0;
  std::uint64_t replies = 0;
  std::size_t converged = 0;
};

FleetResult harvest(ShardedFleet& fleet) {
  FleetResult r;
  r.digests = fleet.endpoint_digests();
  r.messages = fleet.message_counts();
  r.metrics_json = fleet.metrics_json();
  const FleetStats s = fleet.stats();
  r.op_digest = s.op_digest;
  r.local_ops = s.local_ops;
  r.remote_ops = s.remote_ops;
  r.replies = s.replies;
  r.converged = fleet.converged_files();
  return r;
}

void expect_equal(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.metrics_json, b.metrics_json);
  EXPECT_EQ(a.op_digest, b.op_digest);
  EXPECT_EQ(a.local_ops, b.local_ops);
  EXPECT_EQ(a.remote_ops, b.remote_ops);
  EXPECT_EQ(a.replies, b.replies);
  EXPECT_EQ(a.converged, b.converged);
}

FleetResult run_plain(std::uint32_t threads, std::uint64_t seed) {
  ShardedFleet fleet(fleet_config(threads, seed));
  fleet.place(1, kFiles);
  FleetWorkloadParams wl;
  wl.ops_per_endpoint_per_sec = 6.0;
  wl.cross_segment_fraction = 0.3;
  wl.duration = sec(3);
  fleet.set_workload(wl);
  fleet.run_for(sec(3) + sec(5));  // workload + drain
  return harvest(fleet);
}

TEST(ShardedFleetOracle, ParallelRunMatchesSequentialOracle) {
  const FleetResult oracle = run_plain(/*threads=*/1, 2007);
  const FleetResult par4 = run_plain(/*threads=*/4, 2007);
  EXPECT_GT(oracle.remote_ops, 0u);  // the conveyor actually carried ops
  EXPECT_EQ(oracle.replies, oracle.remote_ops);  // all round trips closed
  expect_equal(oracle, par4);
}

TEST(ShardedFleetOracle, ThreadCountsTwoAndEightMatchToo) {
  const FleetResult oracle = run_plain(1, 555);
  expect_equal(oracle, run_plain(2, 555));
  expect_equal(oracle, run_plain(8, 555));
}

TEST(ShardedFleetOracle, SequentialRunIsInternallyReproducible) {
  expect_equal(run_plain(1, 99), run_plain(1, 99));
}

TEST(ShardedFleetOracle, DifferentSeedsDiverge) {
  // Sanity that the equality above is not vacuous.
  const FleetResult a = run_plain(1, 2007);
  const FleetResult b = run_plain(1, 555);
  EXPECT_NE(a.op_digest, b.op_digest);
}

/// Elastic churn inside worker-owned epochs: segment 1 gains an endpoint
/// at t=1.5s, segment 2 loses endpoint 1 at t=2.5s — scheduled through
/// the fleet so the membership change executes on whichever worker owns
/// the segment that epoch.
FleetResult run_churn(std::uint32_t threads, std::uint64_t seed) {
  shard::ShardedClusterConfig cfg = fleet_config(threads, seed);
  cfg.anti_entropy_period = sec(1);
  ShardedFleet fleet(cfg);
  fleet.place(1, kFiles);
  FleetWorkloadParams wl;
  wl.ops_per_endpoint_per_sec = 6.0;
  wl.cross_segment_fraction = 0.3;
  wl.duration = sec(3);
  fleet.set_workload(wl);
  fleet.schedule_on(1, sec(1) + msec(500),
                    [](shard::ShardedCluster& c) { c.add_endpoint(); });
  fleet.schedule_on(2, sec(2) + msec(500),
                    [](shard::ShardedCluster& c) { c.remove_endpoint(1); });
  fleet.run_for(sec(3) + sec(5));
  return harvest(fleet);
}

TEST(ShardedFleetOracle, ChurnReplayIsThreadCountInvariant) {
  const FleetResult oracle = run_churn(1, 2007);
  expect_equal(oracle, run_churn(4, 2007));
}

/// Crash/restart with durable checkpoints: segment 0's endpoint 1 dies at
/// t=1.2s and restarts at t=2.6s, recovering from its incremental
/// checkpoint plus anti-entropy — the full fault pipeline under the
/// parallel runtime.
FleetResult run_crash(std::uint32_t threads, std::uint64_t seed) {
  shard::ShardedClusterConfig cfg = fleet_config(threads, seed);
  cfg.anti_entropy_period = sec(1);
  cfg.checkpoint.engine = replica::CheckpointEngineKind::kIncremental;
  cfg.checkpoint.period = sec(1);
  ShardedFleet fleet(cfg);
  fleet.place(1, kFiles);
  FleetWorkloadParams wl;
  wl.ops_per_endpoint_per_sec = 6.0;
  wl.cross_segment_fraction = 0.3;
  wl.duration = sec(3);
  fleet.set_workload(wl);
  fleet.schedule_on(0, sec(1) + msec(200),
                    [](shard::ShardedCluster& c) { c.crash_endpoint(1); });
  fleet.schedule_on(0, sec(2) + msec(600),
                    [](shard::ShardedCluster& c) { c.restart_endpoint(1); });
  fleet.run_for(sec(3) + sec(5));
  return harvest(fleet);
}

TEST(ShardedFleetOracle, CrashReplayIsThreadCountInvariant) {
  const FleetResult oracle = run_crash(1, 2007);
  expect_equal(oracle, run_crash(4, 2007));
}

TEST(ShardedFleetTopology, SegmentsPartitionEndpointsAndFiles) {
  ShardedFleet fleet(fleet_config(1, 2007));
  fleet.place(1, kFiles);
  EXPECT_EQ(fleet.segments(), kSegments);
  std::uint32_t endpoints = 0;
  for (std::uint32_t s = 0; s < fleet.segments(); ++s) {
    endpoints += fleet.segment_endpoints(s);
  }
  EXPECT_EQ(endpoints, 16u);
  // Global ids are segment-major and dense.
  EXPECT_EQ(fleet.global_endpoint(0, 0), 0u);
  EXPECT_EQ(fleet.global_endpoint(1, 0), fleet.segment_endpoints(0));
  // Every file lands on the segment its id hashes to, and is placed there.
  for (FileId f = 1; f <= kFiles; ++f) {
    const std::uint32_t s = fleet.segment_of_file(f);
    ASSERT_LT(s, fleet.segments());
    EXPECT_TRUE(fleet.segment(s).is_placed(f));
  }
}

TEST(ShardedFleetStats, ConveyorAccountingCloses) {
  ShardedFleet fleet(fleet_config(4, 2007));
  fleet.place(1, kFiles);
  FleetWorkloadParams wl;
  wl.ops_per_endpoint_per_sec = 6.0;
  wl.cross_segment_fraction = 0.5;
  wl.duration = sec(2);
  fleet.set_workload(wl);
  fleet.run_for(sec(2) + sec(5));
  const FleetStats s = fleet.stats();
  EXPECT_GT(s.remote_ops, 0u);
  // Every remote op and every reply rode the conveyor; nothing lingers.
  EXPECT_EQ(s.conveyor.messages, s.remote_ops + s.replies);
  EXPECT_EQ(s.conveyor.packets, s.conveyor.drained);
  EXPECT_GE(s.pool.batches, 1u);
  EXPECT_EQ(s.pool.tasks_run, s.pool.batches * kSegments);
}

}  // namespace
}  // namespace idea::runtime
