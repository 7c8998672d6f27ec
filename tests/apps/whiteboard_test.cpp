#include "apps/whiteboard.hpp"

#include <gtest/gtest.h>

#include "apps/workload.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::apps {
namespace {

core::ClusterConfig board_cluster() {
  core::ClusterConfig cfg;
  cfg.nodes = 10;
  cfg.sync_sizes();
  cfg.idea.controller.mode = core::AdaptiveMode::kHintBased;
  cfg.idea.controller.hint = 0.9;
  cfg.idea.maxima = vv::TripleMaxima{20, 20, 20};
  return cfg;
}

TEST(Whiteboard, StrokeMetaIsScaledAsciiSum) {
  EXPECT_DOUBLE_EQ(WhiteboardApp::stroke_meta("A"), 0.65);
  EXPECT_DOUBLE_EQ(WhiteboardApp::stroke_meta(""), 0.0);
  EXPECT_DOUBLE_EQ(WhiteboardApp::stroke_meta("AB"),
                   (65.0 + 66.0) / 100.0);
}

TEST(Whiteboard, PostAndView) {
  core::IdeaCluster cluster(board_cluster());
  cluster.start();
  WhiteboardApp board(cluster, {1, 4});
  cluster.warm_up({1, 4}, sec(20));
  EXPECT_TRUE(board.post(1, "hello"));
  const auto v = board.view(1);
  ASSERT_EQ(v.size(), 2u);  // warm-up stroke + "hello"
  EXPECT_EQ(v[1], "hello");
}

TEST(Whiteboard, ViewsConvergeAfterResolution) {
  core::IdeaCluster cluster(board_cluster());
  cluster.start();
  WhiteboardApp board(cluster, {1, 4});
  cluster.warm_up({1, 4}, sec(20));
  board.post(1, "from-1");
  board.post(4, "from-4");
  EXPECT_FALSE(board.boards_match());
  cluster.run_for(sec(15));  // hint controller resolves
  EXPECT_TRUE(board.boards_match());
}

TEST(Whiteboard, InvalidatedStrokesHiddenFromView) {
  core::ClusterConfig cfg = board_cluster();
  cfg.idea.resolution.policy.policy =
      core::ResolutionPolicy::kInvalidateBoth;
  core::IdeaCluster cluster(cfg);
  cluster.start();
  WhiteboardApp board(cluster, {1, 4});
  cluster.warm_up({1, 4}, sec(20));
  // Establish a shared consistent base before the clash.
  cluster.node(1).demand_active_resolution();
  cluster.run_for(sec(5));
  const auto before = board.view(1).size();
  board.post(1, "clash-a");
  board.post(4, "clash-b");
  cluster.run_for(sec(15));
  EXPECT_TRUE(board.boards_match());
  // Invalidate-both: the conflicting strokes were cleared everywhere.
  EXPECT_EQ(board.view(1).size(), before);
}

TEST(Whiteboard, LevelsSampledIntoSeries) {
  core::IdeaCluster cluster(board_cluster());
  cluster.start();
  WhiteboardApp board(cluster, {1, 4});
  cluster.warm_up({1, 4}, sec(20));
  for (int i = 0; i < 5; ++i) {
    board.post(1, "s1");
    board.post(4, "s4");
    cluster.run_for(sec(5));
    board.sample_levels(cluster.sim().now());
  }
  EXPECT_EQ(board.worst_series().size(), 5u);
  EXPECT_EQ(board.average_series().size(), 5u);
  // Worst <= average by construction.
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_LE(board.worst_series().value_at(i),
              board.average_series().value_at(i) + 1e-12);
  }
}

TEST(Whiteboard, UserModelTracksAnnoyance) {
  core::ClusterConfig cfg = board_cluster();
  cfg.idea.controller.mode = core::AdaptiveMode::kOnDemand;
  core::IdeaCluster cluster(cfg);
  cluster.start();
  WhiteboardApp board(cluster, {1, 4});
  cluster.warm_up({1, 4}, sec(20));
  board.attach_user(UserModel{1, /*real_tolerance=*/0.99,
                              /*complains=*/true});
  board.post(1, "a");
  board.post(4, "b");
  cluster.run_for(sec(10));
  ASSERT_EQ(board.users().size(), 1u);
  EXPECT_GT(board.users()[0].times_annoyed, 0u);
  EXPECT_GT(board.users()[0].times_complained, 0u);
}

TEST(Whiteboard, SilentUserDoesNotComplain) {
  core::ClusterConfig cfg = board_cluster();
  cfg.idea.controller.mode = core::AdaptiveMode::kOnDemand;
  core::IdeaCluster cluster(cfg);
  cluster.start();
  WhiteboardApp board(cluster, {1, 4});
  cluster.warm_up({1, 4}, sec(20));
  board.attach_user(UserModel{1, 0.99, /*complains=*/false});
  board.post(1, "a");
  board.post(4, "b");
  cluster.run_for(sec(10));
  EXPECT_GT(board.users()[0].times_annoyed, 0u);
  EXPECT_EQ(board.users()[0].times_complained, 0u);
}

TEST(Whiteboard, SharedBoardRunsOverSessions) {
  // The sharded deployment: one board file on the ring, participants as
  // client sessions attached at their own endpoints.
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = 6;
  cfg.replication = 3;
  cfg.seed = 321;
  cfg.sync_sizes();
  shard::ShardedCluster cluster(cfg);

  const FileId board_file = 1;
  SharedWhiteboard board(cluster, board_file, {0, 2, 5},
                         client::ConsistencyLevel::eventual_nearest());
  EXPECT_TRUE(board.post(0, "hello"));
  EXPECT_TRUE(board.post(2, "world"));
  cluster.run_for(sec(3));

  // Every participant's routed view converged on the posted strokes.
  EXPECT_TRUE(board.boards_match());
  const auto v = board.view(5);
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], "hello");
  EXPECT_EQ(v[1], "world");
  // The routed read reports where it was served and at what cost.
  const auto handle = board.read(5);
  ASSERT_TRUE(handle.ok());
  EXPECT_NE(handle->served_by, kNoNode);
  EXPECT_GT(handle->latency, 0);
}

}  // namespace
}  // namespace idea::apps
