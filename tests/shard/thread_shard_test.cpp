/// \file thread_shard_test.cpp
/// \brief The shard layer running over the wall-clock ThreadTransport.
///
/// The shard stack was sim-only until now (ROADMAP follow-up).  This test
/// assembles the same pieces a ShardedCluster wires — IdeaService
/// endpoints, per-file rank-translating GroupTransports, ReplicaSyncAgents
/// with anti-entropy — over net::ThreadTransport, so group replication and
/// digest/repair healing are exercised under real concurrency instead of
/// the discrete-event kernel.  All protocol activity runs on the
/// transport's dispatcher thread; the test thread only schedules work via
/// call_after and joins the timeline with wait_idle (the nodes are not
/// start()ed, so no periodic timers keep the queue busy forever).

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/service.hpp"
#include "net/thread_transport.hpp"
#include "shard/group_transport.hpp"
#include "shard/replica_sync.hpp"
#include "sim/latency.hpp"

namespace idea::shard {
namespace {

struct FileStack {
  std::vector<NodeId> members;
  std::vector<std::unique_ptr<GroupTransport>> transports;
  std::vector<std::unique_ptr<ReplicaSyncAgent>> sync;
};

/// Mirror of ShardedCluster::open_group over an arbitrary transport.
FileStack open_group(
    FileId file, std::vector<NodeId> members, net::Transport& edge,
    std::vector<std::unique_ptr<core::IdeaService>>& services) {
  core::IdeaConfig idea;
  idea.maxima = vv::TripleMaxima{20, 20, 20};
  const auto k = static_cast<std::uint32_t>(members.size());
  idea.ransub.nodes = k;
  idea.gossip.nodes = k;
  idea.two_layer.all_nodes = k;

  FileStack stack;
  stack.members = std::move(members);
  for (std::uint32_t rank = 0; rank < k; ++rank) {
    auto transport =
        std::make_unique<GroupTransport>(edge, stack.members, rank);
    core::IdeaNode& node = services[stack.members[rank]]->open_via(
        file, idea, *transport, rank, transport.get());
    transport->set_sink(&node.dispatcher());
    stack.sync.push_back(
        std::make_unique<ReplicaSyncAgent>(node, *transport, k));
    stack.transports.push_back(std::move(transport));
  }
  return stack;
}

TEST(ThreadShardTest, GroupReplicationOverThreadTransport) {
  constexpr std::uint32_t kEndpoints = 5;
  sim::PlanetLabParams lat;
  lat.nodes = kEndpoints;
  sim::PlanetLabLatency latency(lat);
  net::ThreadTransportOptions topt;
  topt.time_scale = 0.001;  // 1000x faster than the virtual timeline
  net::ThreadTransport transport(latency, topt);

  // Destruction order (reverse of declaration): agents release dispatcher
  // routes before services destroy the nodes; group transports outlive
  // the nodes, which cancel timers through them; the transport outlives
  // everything (it joins its dispatcher thread on destruction).
  std::vector<std::unique_ptr<core::IdeaService>> services;
  for (NodeId n = 0; n < kEndpoints; ++n) {
    services.push_back(std::make_unique<core::IdeaService>(
        n, transport, mix64(0xABC + n)));
  }
  std::vector<FileStack> stacks;
  stacks.push_back(open_group(1, {0, 2, 4}, transport, services));
  stacks.push_back(open_group(2, {1, 3, 0}, transport, services));

  // Writes execute on the dispatcher thread, like every protocol callback.
  for (int i = 0; i < 8; ++i) {
    transport.call_after(msec(10) * (i + 1), [&stacks, i] {
      stacks[0].sync[0]->put("f1-" + std::to_string(i), 1.0);
      stacks[1].sync[0]->put("f2-" + std::to_string(i), 2.0);
    });
  }
  ASSERT_TRUE(transport.wait_idle(sec(3600)));

  for (FileId file : {FileId{1}, FileId{2}}) {
    const FileStack& stack = stacks[file - 1];
    const std::uint64_t digest = services[stack.members[0]]
                                     ->find(file)
                                     ->store()
                                     .content_digest();
    for (std::size_t rank = 0; rank < stack.members.size(); ++rank) {
      core::IdeaNode* node = services[stack.members[rank]]->find(file);
      ASSERT_NE(node, nullptr);
      EXPECT_EQ(node->store().update_count(), 8u)
          << "file " << file << " rank " << rank;
      EXPECT_EQ(node->store().content_digest(), digest)
          << "file " << file << " rank " << rank;
    }
  }
  EXPECT_GT(transport.counters().messages_of("shard.replicate"), 0u);

  // Teardown discipline mirrors ShardedCluster::~ShardedCluster.
  for (FileStack& stack : stacks) stack.sync.clear();
  services.clear();
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

  std::vector<std::unique_ptr<core::IdeaService>> services;
  for (NodeId n = 0; n < 3; ++n) {
    services.push_back(std::make_unique<core::IdeaService>(
        n, transport, mix64(0xD1CE + n)));
  }
  FileStack stack = open_group(kFile, {0, 1, 2}, transport, services);

  // Seed divergence without touching the network: rank 0 applies updates
  // straight into its store, as if every replication push had been lost.
  transport.call_after(msec(1), [&transport, &services] {
    core::IdeaNode* coord = services[0]->find(kFile);
    for (int i = 0; i < kUpdates; ++i) {
      coord->store().apply_local(transport.local_time(0),
                                 "lost-" + std::to_string(i), 1.0);
    }
  });
  ASSERT_TRUE(transport.wait_idle(sec(3600)));
  EXPECT_EQ(services[1]->find(kFile)->store().update_count(), 0u);

  // Anti-entropy digests repair the cold replicas within a few periods.
  transport.call_after(msec(1), [&stack] {
    for (auto& agent : stack.sync) agent->start_anti_entropy(msec(100));
  });
  // ~10 virtual periods; at time_scale 0.001 this is ~1 ms real, so give
  // the wall clock a generous real-time margin instead (thousands of
  // periods even on a loaded CI machine).  The agents are single-owner:
  // they are stopped on the transport thread that started them, never
  // from this one.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  transport.call_after(msec(1), [&stack] {
    for (auto& agent : stack.sync) agent->stop_anti_entropy();
  });
  ASSERT_TRUE(transport.wait_idle(sec(3600)));

  for (std::size_t rank = 0; rank < 3; ++rank) {
    core::IdeaNode* node = services[rank]->find(kFile);
    EXPECT_EQ(node->store().update_count(),
              static_cast<std::size_t>(kUpdates))
        << "rank " << rank;
  }
  EXPECT_GT(stack.sync[1]->stats().repair_updates_applied, 0u);

  stack.sync.clear();
  services.clear();
}

}  // namespace
}  // namespace idea::shard
