#include "apps/kvstore.hpp"

#include <gtest/gtest.h>

#include <set>

#include "workload/engine.hpp"

namespace idea::apps {
namespace {

/// A write tenant over `keys` keys at `ops_per_sec`, Zipf(`zipf_s`).
workload::TenantSpec writes(std::uint32_t keys, double ops_per_sec,
                            double zipf_s) {
  workload::TenantSpec spec;
  spec.name = "kv-writers";
  spec.keys = keys;
  spec.read_fraction = 0.0;
  spec.rate = {{0, ops_per_sec}};
  spec.zipf = {{0, zipf_s}};
  return spec;
}

shard::ShardedClusterConfig kv_cluster_config() {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = 8;
  cfg.replication = 3;
  cfg.seed = 616;
  cfg.sync_sizes();
  return cfg;
}

TEST(KvStoreTest, PutGetRoundtrip) {
  shard::ShardedCluster cluster(kv_cluster_config());
  KvStore kv(cluster, KvStoreOptions{.buckets = 64, .first_file = 1});

  ASSERT_TRUE(kv.put("user:1", "alice"));
  ASSERT_TRUE(kv.put("user:2", "bob"));
  cluster.run_for(sec(1));

  EXPECT_EQ(kv.get("user:1"), std::optional<std::string>("alice"));
  EXPECT_EQ(kv.get("user:2"), std::optional<std::string>("bob"));
  EXPECT_EQ(kv.get("user:3"), std::nullopt);
  EXPECT_EQ(kv.hits(), 2u);
  EXPECT_EQ(kv.gets(), 3u);
}

TEST(KvStoreTest, LatestWriteWins) {
  shard::ShardedCluster cluster(kv_cluster_config());
  KvStore kv(cluster, KvStoreOptions{.buckets = 16, .first_file = 1});

  ASSERT_TRUE(kv.put("counter", "1"));
  cluster.run_for(msec(200));
  ASSERT_TRUE(kv.put("counter", "2"));
  cluster.run_for(msec(200));
  ASSERT_TRUE(kv.put("counter", "3"));
  cluster.run_for(sec(1));

  EXPECT_EQ(kv.get("counter"), std::optional<std::string>("3"));
}

TEST(KvStoreTest, KeysSpreadOverBucketsAndEndpoints) {
  shard::ShardedCluster cluster(kv_cluster_config());
  KvStore kv(cluster, KvStoreOptions{.buckets = 64, .first_file = 1});
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(kv.put("key-" + std::to_string(i), "v"));
  }
  cluster.run_for(sec(1));
  // 200 keys over 64 buckets must touch many buckets and several
  // coordinator endpoints.
  EXPECT_GT(cluster.placed_files(), 32u);
  std::set<NodeId> coordinators;
  for (FileId f = 1; f <= 64; ++f) {
    if (cluster.is_placed(f)) {
      coordinators.insert(cluster.coordinator(f).second);
    }
  }
  EXPECT_GT(coordinators.size(), 3u);
}

TEST(KvStoreTest, IssueNamesTheKeyByRankAndTheValueByIndex) {
  shard::ShardedCluster cluster(kv_cluster_config());
  KvStore kv(cluster, KvStoreOptions{.buckets = 16, .first_file = 1});

  workload::Op op;
  op.is_read = false;
  op.key = 42;
  op.index = 7;
  kv.issue(op);
  cluster.run_for(sec(1));
  EXPECT_EQ(kv.puts(), 1u);
  EXPECT_EQ(kv.get("k000042"), std::optional<std::string>("op7"));

  op.is_read = true;
  kv.issue(op);
  EXPECT_EQ(kv.puts(), 1u);
  EXPECT_EQ(kv.gets(), 2u);
  EXPECT_EQ(kv.hits(), 2u);
}

TEST(KvStoreTest, WorkloadDrivesThroughputAndConverges) {
  shard::ShardedCluster cluster(kv_cluster_config());
  KvStore kv(cluster, KvStoreOptions{.buckets = 32, .first_file = 1});
  cluster.place(1, 32);

  workload::OpenLoopEngine engine(
      cluster.sim(), workload::EngineOptions{0, sec(10), 99},
      {writes(128, 15.0, 0.9)},
      [&kv](const workload::Op& op) { kv.issue(op); });
  engine.start();
  cluster.run_for(sec(30));  // run + settle

  EXPECT_GT(engine.total_ops(), 100u);
  EXPECT_EQ(kv.puts() + kv.blocked_puts(), engine.total_ops() - kv.gets());
  std::size_t converged = 0;
  for (FileId f = 1; f <= 32; ++f) {
    if (cluster.converged(f)) ++converged;
  }
  // Concurrent clients on a Zipf keyspace conflict constantly; after the
  // settle window the groups must have resolved.
  EXPECT_GE(converged, 30u);
}

TEST(KvStoreTest, ZipfSkewsBucketLoad) {
  shard::ShardedCluster cluster(kv_cluster_config());
  KvStore kv(cluster, KvStoreOptions{.buckets = 256, .first_file = 1});

  workload::OpenLoopEngine engine(
      cluster.sim(), workload::EngineOptions{0, sec(20), 7},
      {writes(2048, 40.0, 1.2)},
      [&kv](const workload::Op& op) { kv.issue(op); });
  engine.start();
  cluster.run_for(sec(21));

  // Heavy skew: far fewer buckets touched than ops issued.
  EXPECT_GT(engine.total_ops(), 200u);
  EXPECT_LT(cluster.placed_files(), engine.total_ops() / 2);
}

}  // namespace
}  // namespace idea::apps
