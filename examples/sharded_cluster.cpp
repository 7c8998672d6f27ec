/// \file sharded_cluster.cpp
/// \brief Tour of the multi-tenant shard layer (src/shard/).
///
/// Stands up a sharded deployment — 8 endpoints behind a batching
/// transport, each an IdeaService that hands every inbound message to the
/// replica its file's group record names — places 200 tenant files on
/// the consistent-hash ring, drives a key-value workload through a client
/// session, and shows the three things the layer buys: balanced
/// placement, replica-group convergence through the stock IDEA
/// protocols, and batched fan-out.  (See client_sessions.cpp for the
/// consistency-level tour.)
///
///   $ ./sharded_cluster

#include <cstdio>

#include "apps/kvstore.hpp"
#include "client/session.hpp"
#include "shard/sharded_cluster.hpp"

using namespace idea;
using namespace idea::shard;

int main() {
  // --- 1. Build the deployment. -------------------------------------------
  ShardedClusterConfig cfg;
  cfg.endpoints = 8;
  cfg.replication = 3;
  cfg.seed = 2026;
  cfg.sync_sizes();
  ShardedCluster cluster(cfg);

  // --- 2. Place 200 tenant files on the ring. -----------------------------
  cluster.place(1, 200);
  std::vector<FileId> tenants;
  for (FileId f = 1; f <= 200; ++f) tenants.push_back(f);
  std::printf("placed %zu files on %u endpoints (k=%u)\n",
              cluster.placed_files(), cfg.endpoints, cfg.replication);
  std::printf("primary load per endpoint:");
  for (const auto& [endpoint, load] : cluster.ring().primary_load(tenants)) {
    std::printf(" %s=%zu", node_name(endpoint).c_str(), load);
  }
  std::printf("\n");

  // --- 3. A key-value workload writes through its client session. ---------
  apps::KvStore kv(cluster, apps::KvStoreOptions{.buckets = 200,
                                                 .first_file = 1});
  apps::KvWorkloadParams wl;
  wl.clients = 8;
  wl.interval = msec(250);
  wl.duration = sec(20);
  wl.keyspace = 1000;
  wl.zipf_s = 0.9;
  apps::KvWorkload workload(kv, cluster.sim(), wl, /*seed=*/7);
  workload.start();
  cluster.run_for(sec(40));  // run, then settle

  std::printf("\nworkload: %llu ops attempted, %llu puts applied, "
              "%llu not applied\n",
              static_cast<unsigned long long>(workload.attempted()),
              static_cast<unsigned long long>(kv.puts()),
              static_cast<unsigned long long>(kv.blocked_puts()));

  kv.put("demo-key", "hello-shards");
  cluster.run_for(sec(1));
  const auto value = kv.get("demo-key");
  std::printf("get(\"demo-key\") = %s\n",
              value ? value->c_str() : "(miss)");

  // --- 4. Every replica group converged through the IDEA protocols. -------
  std::size_t converged = 0;
  for (FileId f : tenants) {
    if (cluster.converged(f)) ++converged;
  }
  std::printf("converged replica groups: %zu / %zu\n", converged,
              tenants.size());

  // --- 5. What batching did to the fan-out. --------------------------------
  if (const net::BatchingTransport* batching = cluster.batching()) {
    const net::BatchingStats& s = batching->stats();
    std::printf("\nbatching: %llu logical messages in %llu wire envelopes "
                "(factor %.2fx, largest batch %llu)\n",
                static_cast<unsigned long long>(s.logical_messages),
                static_cast<unsigned long long>(s.envelopes),
                s.batch_factor(),
                static_cast<unsigned long long>(s.largest_batch));
  }

  // --- 6. What a membership change would remap. ----------------------------
  HashRing after = cluster.ring();
  after.remove_node(3);
  const RebalanceStats stats =
      HashRing::rebalance(cluster.ring(), after, tenants, cfg.replication);
  std::printf("if %s left: %.1f%% of primaries move, %.1f%% of groups "
              "change (1/N = %.1f%%)\n",
              node_name(3).c_str(), 100.0 * stats.moved_fraction(),
              100.0 * stats.group_changed_fraction(),
              100.0 / cfg.endpoints);
  return 0;
}
