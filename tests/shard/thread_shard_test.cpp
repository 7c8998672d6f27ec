/// \file thread_shard_test.cpp
/// \brief The shard layer running over the wall-clock ThreadTransport.
///
/// The shard stack was sim-only until now (ROADMAP follow-up).  This test
/// assembles the same pieces a ShardedCluster wires — per file a FileGroup
/// record whose GroupRanks hold the rank-translating GroupTransport, the
/// store-only IdeaNode and the ReplicaSyncAgent with anti-entropy, and
/// IdeaService
/// endpoints that deliver each message through its file's record
/// (FileGroup::sink, the rule ShardedCluster answers with) — over
/// net::ThreadTransport, so group replication and digest/repair healing
/// are exercised under real concurrency instead of the discrete-event
/// kernel.  All protocol activity runs on the transport's dispatcher
/// thread; the test thread only schedules work via call_after and joins
/// the timeline with wait_idle (a rank runs no periodic timer but
/// anti-entropy, which the test stops before it waits).
///
/// Destruction runs in reverse declaration order: the services detach
/// first, then each record's ranks tear down agent -> replica -> transport
/// by construction, and the ThreadTransport (declared first) joins its
/// dispatcher thread last.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/service.hpp"
#include "net/thread_transport.hpp"
#include "shard/group_transport.hpp"
#include "shard/replica_sync.hpp"
#include "shard/sharded_cluster.hpp"
#include "sim/latency.hpp"

namespace idea::shard {
namespace {

/// The test's deployment: every placed file's record, and the endpoints'
/// sink lookup over them.  Records are built before any traffic flows and
/// never change afterwards, so the dispatcher thread reads them freely.
struct Groups final : core::FileSinks {
  std::map<FileId, FileGroup> files;
  net::MessageHandler* sink(NodeId endpoint, FileId file) override {
    auto it = files.find(file);
    return it == files.end() ? nullptr : it->second.sink(endpoint);
  }
};

/// Mirror of ShardedCluster::open_group over an arbitrary transport.
FileGroup& open_group(
    FileId file, std::vector<NodeId> members, net::Transport& edge,
    Groups& groups,
    const std::vector<std::unique_ptr<core::IdeaService>>& services) {
  const auto k = static_cast<std::uint32_t>(members.size());
  FileGroup& group = groups.files[file];
  group.members = std::move(members);
  group.ranks.resize(k);
  for (std::uint32_t rank = 0; rank < k; ++rank) {
    if (services[group.members[rank]] == nullptr) continue;
    GroupRank& r = group.ranks[rank];
    r.transport = std::make_unique<GroupTransport>(edge, group.members, rank);
    r.node = std::make_unique<core::IdeaNode>(rank, file);
    r.sync =
        std::make_unique<ReplicaSyncAgent>(r.node->store(), *r.transport, k);
    r.transport->set_sink(r.sync.get());
  }
  return group;
}

TEST(ThreadShardTest, GroupReplicationOverThreadTransport) {
  constexpr std::uint32_t kEndpoints = 5;
  sim::PlanetLabParams lat;
  lat.nodes = kEndpoints;
  sim::PlanetLabLatency latency(lat);
  net::ThreadTransportOptions topt;
  topt.time_scale = 0.001;  // 1000x faster than the virtual timeline
  net::ThreadTransport transport(latency, topt);

  Groups groups;
  std::vector<std::unique_ptr<core::IdeaService>> services;
  for (NodeId n = 0; n < kEndpoints; ++n) {
    services.push_back(
        std::make_unique<core::IdeaService>(n, transport, groups));
  }
  FileGroup& f1 = open_group(1, {0, 2, 4}, transport, groups, services);
  FileGroup& f2 = open_group(2, {1, 3, 0}, transport, groups, services);

  // Writes execute on the dispatcher thread, like every protocol callback.
  for (int i = 0; i < 8; ++i) {
    transport.call_after(msec(10) * (i + 1), [&f1, &f2, i] {
      f1.ranks[0].sync->put("f1-" + std::to_string(i), 1.0);
      f2.ranks[0].sync->put("f2-" + std::to_string(i), 2.0);
    });
  }
  ASSERT_TRUE(transport.wait_idle(sec(3600)));

  for (FileId file : {FileId{1}, FileId{2}}) {
    const FileGroup& group = groups.files.at(file);
    const std::uint64_t digest =
        group.ranks[0].node->store().content_digest();
    for (std::size_t rank = 0; rank < group.ranks.size(); ++rank) {
      const core::IdeaNode& node = *group.ranks[rank].node;
      EXPECT_EQ(node.store().update_count(), 8u)
          << "file " << file << " rank " << rank;
      EXPECT_EQ(node.store().content_digest(), digest)
          << "file " << file << " rank " << rank;
    }
  }
  EXPECT_GT(transport.counters().messages_of("shard.replicate"), 0u);
}

TEST(ThreadShardTest, AntiEntropyHealsColdReplicaOverThreadTransport) {
  constexpr FileId kFile = 7;
  constexpr int kUpdates = 5;
  sim::PlanetLabParams lat;
  lat.nodes = 3;
  sim::PlanetLabLatency latency(lat);
  net::ThreadTransportOptions topt;
  topt.time_scale = 0.001;
  net::ThreadTransport transport(latency, topt);

  Groups groups;
  std::vector<std::unique_ptr<core::IdeaService>> services;
  for (NodeId n = 0; n < 3; ++n) {
    services.push_back(
        std::make_unique<core::IdeaService>(n, transport, groups));
  }
  FileGroup& group = open_group(kFile, {0, 1, 2}, transport, groups,
                                services);

  // Seed divergence without touching the network: rank 0 applies updates
  // straight into its store, as if every replication push had been lost.
  transport.call_after(msec(1), [&transport, &group] {
    core::IdeaNode& coord = *group.ranks[0].node;
    for (int i = 0; i < kUpdates; ++i) {
      coord.store().apply_local(transport.local_time(0),
                                "lost-" + std::to_string(i), 1.0);
    }
  });
  ASSERT_TRUE(transport.wait_idle(sec(3600)));
  EXPECT_EQ(group.ranks[1].node->store().update_count(), 0u);

  // Anti-entropy digests repair the cold replicas within a few periods.
  transport.call_after(msec(1), [&group] {
    for (GroupRank& r : group.ranks) r.sync->start_anti_entropy(msec(100));
  });
  // ~10 virtual periods; at time_scale 0.001 this is ~1 ms real, so give
  // the wall clock a generous real-time margin instead (thousands of
  // periods even on a loaded CI machine).  The agents are single-owner:
  // they are stopped on the transport thread that started them, never
  // from this one.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  transport.call_after(msec(1), [&group] {
    for (GroupRank& r : group.ranks) r.sync->stop_anti_entropy();
  });
  ASSERT_TRUE(transport.wait_idle(sec(3600)));

  for (std::size_t rank = 0; rank < 3; ++rank) {
    EXPECT_EQ(group.ranks[rank].node->store().update_count(),
              static_cast<std::size_t>(kUpdates))
        << "rank " << rank;
  }
  EXPECT_GT(group.ranks[1].sync->stats().repair_updates_applied, 0u);
}

}  // namespace
}  // namespace idea::shard
