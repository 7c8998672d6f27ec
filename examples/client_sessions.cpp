/// \file client_sessions.cpp
/// \brief Tour of the unified client session API (src/client/).
///
/// Opens sessions against a sharded cluster at each of the four
/// consistency levels and shows what the declared level buys: where the
/// read routing serves from, the client-observed latency it implies, and
/// the staleness the application accepted in exchange.
///
///   $ ./client_sessions

#include <cstdio>

#include "client/session.hpp"
#include "shard/sharded_cluster.hpp"

using namespace idea;
using namespace idea::client;

namespace {

void show(const char* label, const OpHandle<ReadResult>& handle) {
  std::printf(
      "  %-22s served by %s  latency %5.1f ms  staleness %llu versions%s%s\n",
      label, node_name(handle->served_by).c_str(),
      static_cast<double>(handle->latency) / 1000.0,
      static_cast<unsigned long long>(handle->staleness_versions),
      handle->escalated ? "  [escalated to coordinator]" : "",
      handle->migration_window ? "  [migration window]" : "");
}

}  // namespace

int main() {
  // --- 1. A sharded deployment with anti-entropy on. ----------------------
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = 8;
  cfg.replication = 3;
  cfg.seed = 2026;
  cfg.anti_entropy_period = msec(500);
  cfg.sync_sizes();
  shard::ShardedCluster cluster(cfg);
  Client client(cluster);

  const FileId file = 7;
  // The writer attaches at endpoint 4, like the readers below, so its
  // acks pay a real round trip to the file's coordinator.
  ClientSession writer = client.session({.origin = 4});
  for (int i = 0; i < 8; ++i) {
    writer.put(file, "update-" + std::to_string(i), 1.0);
  }
  cluster.run_for(sec(2));

  const std::vector<NodeId> group = cluster.group_of(file);
  std::printf("file %u lives on {%s %s %s}, coordinator %s\n\n", file,
              node_name(group[0]).c_str(), node_name(group[1]).c_str(),
              node_name(group[2]).c_str(), node_name(group[0]).c_str());

  // --- 2. The same read under each declared level. ------------------------
  const NodeId origin = 4;  // the client's attachment endpoint
  std::printf("reads from a client attached at %s:\n",
              node_name(origin).c_str());

  ClientSession strong =
      client.session({.level = ConsistencyLevel::strong(), .origin = origin});
  show("Strong", strong.read(file));

  ClientSession nearest = client.session(
      {.level = ConsistencyLevel::eventual_nearest(), .origin = origin});
  show("Eventual{Nearest}", nearest.read(file));

  ClientSession bounded = client.session(
      {.level = ConsistencyLevel::bounded_staleness(2, sec(5)),
       .origin = origin});
  show("BoundedStaleness", bounded.read(file));

  ClientSession quorum =
      client.session({.level = ConsistencyLevel::quorum(), .origin = origin});
  show("Quorum{majority}", quorum.read(file));

  // --- 3. Async completion: handles follow the simulator clock. -----------
  const OpHandle<WriteAck> put = writer.put(file, "async-write", 1.0);
  std::printf("\nput acked by %s, completes in %.1f ms...",
              node_name(put->coordinator).c_str(),
              static_cast<double>(put.latency()) / 1000.0);
  put.on_complete([&](const OpHandle<WriteAck>&) {
    std::printf(" completed at t=%.1f ms\n",
                static_cast<double>(cluster.sim().now()) / 1000.0);
  });
  cluster.run_for(sec(1));

  // --- 4. What the router did under the hood. ------------------------------
  const shard::RouterStats& stats = cluster.router().stats();
  std::printf(
      "\nrouter: %llu reads (%llu strong, %llu nearest, %llu bounded "
      "[%llu escalated], %llu quorum), %llu freshness hints ingested\n",
      static_cast<unsigned long long>(stats.reads),
      static_cast<unsigned long long>(stats.strong_reads),
      static_cast<unsigned long long>(stats.nearest_reads),
      static_cast<unsigned long long>(stats.bounded_reads),
      static_cast<unsigned long long>(stats.bounded_escalations),
      static_cast<unsigned long long>(stats.quorum_reads),
      static_cast<unsigned long long>(stats.freshness_hints));
  return 0;
}
