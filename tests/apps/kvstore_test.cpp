#include "apps/kvstore.hpp"

#include <gtest/gtest.h>

#include <set>

namespace idea::apps {
namespace {

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

TEST(KvStoreTest, WorkloadDrivesThroughputAndConverges) {
  shard::ShardedCluster cluster(kv_cluster_config());
  KvStore kv(cluster, KvStoreOptions{.buckets = 32, .first_file = 1});
  cluster.place(1, 32);

  KvWorkloadParams params;
  params.clients = 6;
  params.interval = msec(400);
  params.duration = sec(10);
  params.keyspace = 128;
  params.zipf_s = 0.9;
  KvWorkload workload(kv, cluster.sim(), params, 99);
  workload.start();
  cluster.run_for(sec(30));  // run + settle

  EXPECT_GT(workload.attempted(), 100u);
  EXPECT_EQ(kv.puts() + kv.blocked_puts(),
            workload.attempted() - kv.gets());
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

  KvWorkloadParams params;
  params.clients = 4;
  params.interval = msec(100);
  params.duration = sec(20);
  params.keyspace = 2048;
  params.zipf_s = 1.2;
  KvWorkload workload(kv, cluster.sim(), params, 7);
  workload.start();
  cluster.run_for(sec(21));

  // Heavy skew: far fewer buckets touched than ops issued.
  EXPECT_GT(workload.attempted(), 200u);
  EXPECT_LT(cluster.placed_files(), workload.attempted() / 2);
}

}  // namespace
}  // namespace idea::apps
