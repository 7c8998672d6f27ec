/// \file determinism_test.cpp
/// \brief Fixed-seed replay golden for the single-file paper path: one
///        IdeaCluster running the full per-node stack (temperature,
///        two-layer overlay, RanSub, gossip, detection, resolution and the
///        hint-based controller).
///
/// Four writers issue conflicting updates; the controller's hint turns the
/// detected level into resolution demands, and one explicit round settles
/// the file at the end.  The test pins the per-type message counts, each
/// writer's level bit for bit (under load and at the end), every
/// resolution round the initiators report, and each writer's content
/// digest.  The values were captured before the sharded path stopped
/// building this stack, so they also prove the stack's move behind one
/// pointer in core::IdeaNode changed nothing.  Any change to the protocol's
/// behavior — one extra message, one reordered event, one different round
/// outcome — fails it.  A change that alters the paper path on purpose
/// must re-capture these values and say so.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "apps/workload.hpp"
#include "core/cluster.hpp"

namespace idea::core {
namespace {

const std::vector<NodeId> kWriters{2, 5, 9, 13};

/// Every resolution round the writers reported, summed and folded in
/// report order.
struct RoundSummary {
  std::uint64_t rounds = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t suppressed = 0;
  std::uint64_t invalidated = 0;
  std::uint64_t shipped = 0;
  std::uint64_t digest = 0;  ///< Order-sensitive fold of every field.

  void add(NodeId initiator, const RoundStats& s) {
    ++rounds;
    succeeded += s.succeeded ? 1 : 0;
    suppressed += s.suppressed ? 1 : 0;
    invalidated += s.invalidated;
    shipped += s.updates_shipped;
    for (const std::uint64_t v :
         {std::uint64_t{initiator}, std::uint64_t{s.active},
          std::uint64_t{s.succeeded}, std::uint64_t{s.suppressed},
          std::uint64_t{s.participants}, std::uint64_t{s.winner},
          std::uint64_t{s.invalidated}, std::uint64_t{s.updates_shipped},
          static_cast<std::uint64_t>(s.total)}) {
      digest = mix64(digest ^ v);
    }
  }
};

struct ReplayResult {
  std::map<std::string, std::uint64_t> per_type;
  /// Each writer's level when the workload ends, and after the final
  /// round, as bit patterns.
  std::vector<std::uint64_t> levels_loaded;
  std::vector<std::uint64_t> levels_final;
  RoundSummary rounds;
  std::vector<std::uint64_t> digests;  ///< One per writer.
  std::uint64_t blocked_writes = 0;
};

std::uint64_t bits(double level) {
  return std::bit_cast<std::uint64_t>(level);
}

ReplayResult replay(std::uint64_t seed) {
  ClusterConfig cfg;
  cfg.nodes = 16;
  cfg.seed = seed;
  cfg.sync_sizes();
  cfg.idea.maxima = vv::TripleMaxima{20, 20, 20};
  cfg.idea.detection_period = sec(1);
  cfg.idea.controller.mode = AdaptiveMode::kHintBased;
  cfg.idea.controller.hint = 0.0;  // bystanders give no hint
  IdeaCluster cluster(cfg);

  ReplayResult r;
  for (NodeId w : kWriters) {
    cluster.node(w).set_hint(0.9);
    cluster.node(w).set_round_listener(
        [&r, w](const RoundStats& s) { r.rounds.add(w, s); });
  }
  cluster.start();
  cluster.warm_up(kWriters, sec(20));

  apps::WorkloadParams wp;
  wp.interval = sec(2);
  wp.jitter_frac = 0.3;
  wp.duration = sec(30);
  apps::UpdateWorkload workload(cluster, kWriters, wp,
                                apps::make_stroke_generator(seed), seed);
  workload.start();
  cluster.run_for(sec(32));
  for (NodeId w : kWriters) {
    r.levels_loaded.push_back(bits(cluster.node(w).current_level()));
  }

  cluster.node(kWriters.front()).demand_active_resolution();
  cluster.run_for(sec(8));

  r.per_type = cluster.transport().counters().by_type();
  for (NodeId w : kWriters) {
    const IdeaNode& node = cluster.node(w);
    r.levels_final.push_back(bits(node.current_level()));
    r.digests.push_back(node.store().content_digest());
    r.blocked_writes += node.blocked_writes();
  }
  return r;
}

TEST(SingleFileDeterminism, Seed2007PinsTheFullStack) {
  const ReplayResult r = replay(2007);

  const std::map<std::string, std::uint64_t> expected_types{
      {"detect.probe", 3480},     {"detect.reply", 3420},
      {"detect.report", 254},     {"gossip.push", 3237},
      {"ransub.collect", 165},    {"ransub.distribute", 165},
      {"ransub.epoch", 169},      {"resolve.attn", 210},
      {"resolve.attn_ack", 210},  {"resolve.collect", 60},
      {"resolve.collect_reply", 60}, {"resolve.commit", 60},
      {"resolve.done", 60},
  };
  EXPECT_EQ(r.per_type, expected_types);

  const std::vector<std::uint64_t> expected_loaded{
      4606664891702077789ull, 4605953322960953253ull,
      4605953322960953253ull, 4607182418800017408ull};
  EXPECT_EQ(r.levels_loaded, expected_loaded);
  const std::vector<std::uint64_t> expected_final(kWriters.size(),
                                                  bits(1.0));
  EXPECT_EQ(r.levels_final, expected_final);

  EXPECT_EQ(r.rounds.rounds, 41u);
  EXPECT_EQ(r.rounds.succeeded, 20u);
  EXPECT_EQ(r.rounds.suppressed, 21u);
  EXPECT_EQ(r.rounds.invalidated, 48u);
  EXPECT_EQ(r.rounds.shipped, 144u);
  EXPECT_EQ(r.rounds.digest, 7791676965883461808ull);

  const std::vector<std::uint64_t> expected_digests(kWriters.size(),
                                                    9628612067904261822ull);
  EXPECT_EQ(r.digests, expected_digests);
  EXPECT_EQ(r.blocked_writes, 4u);
}

}  // namespace
}  // namespace idea::core
