#include "core/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "core/idea_node.hpp"
#include "net/sim_transport.hpp"

namespace idea::core {
namespace {

struct Recorder final : net::MessageHandler {
  std::vector<FileId> files;
  void on_message(const net::Message& msg) override {
    files.push_back(msg.file);
  }
};

/// The deployment side of the services under test: (endpoint, file) ->
/// sink, as a plain map.
struct MapSinks final : FileSinks {
  std::map<std::pair<NodeId, FileId>, net::MessageHandler*> sinks;
  net::MessageHandler* sink(NodeId endpoint, FileId file) override {
    auto it = sinks.find({endpoint, file});
    return it == sinks.end() ? nullptr : it->second;
  }
};

class ServiceFixture : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kNodes = 10;

  void SetUp() override {
    transport_ = std::make_unique<net::SimTransport>(sim_, latency_);
    for (NodeId n = 0; n < kNodes; ++n) {
      services_.push_back(
          std::make_unique<IdeaService>(n, *transport_, sinks_));
    }
  }

  IdeaConfig file_config() {
    IdeaConfig cfg;
    cfg.ransub.nodes = kNodes;
    cfg.gossip.nodes = kNodes;
    cfg.two_layer.all_nodes = kNodes;
    cfg.maxima = vv::TripleMaxima{10, 10, 10};
    cfg.controller.mode = AdaptiveMode::kHintBased;
    cfg.controller.hint = 0.9;
    return cfg;
  }

  /// Join `file` on endpoint `n`: a stack over the shared transport,
  /// seeded per endpoint and file, named as the endpoint's sink for the
  /// file.
  IdeaNode& open(NodeId n, FileId file, IdeaConfig config) {
    std::unique_ptr<IdeaNode>& node = nodes_[{n, file}];
    node = std::make_unique<IdeaNode>(n, file, *transport_, std::move(config),
                                      mix64((900 + n) ^ (0xF11EULL + file)),
                                      /*attach_transport=*/false);
    sinks_.sinks[{n, file}] = &node->dispatcher();
    return *node;
  }

  IdeaNode& node(NodeId n, FileId file) { return *nodes_.at({n, file}); }

  void open_everywhere(FileId file) {
    for (NodeId n = 0; n < kNodes; ++n) open(n, file, file_config()).start();
  }

  /// Send a bare message about `file` from endpoint 1 to endpoint 0 and
  /// let it arrive.
  void deliver_to_0(FileId file) {
    net::Message msg;
    msg.from = 1;
    msg.to = 0;
    msg.file = file;
    msg.type = net::MsgType::intern("test.route");
    transport_->send(std::move(msg));
    sim_.run_until(sim_.now() + sec(1));
  }

  sim::Simulator sim_;
  sim::ConstantLatency latency_{msec(25)};
  std::unique_ptr<net::SimTransport> transport_;
  MapSinks sinks_;
  std::map<std::pair<NodeId, FileId>, std::unique_ptr<IdeaNode>> nodes_;
  // Declared after the stacks, so the services detach first.
  std::vector<std::unique_ptr<IdeaService>> services_;
};

TEST_F(ServiceFixture, DeliversToTheSinkItsDeploymentNames) {
  Recorder at_0;
  Recorder at_1;
  sinks_.sinks[{0, 3}] = &at_0;
  sinks_.sinks[{1, 3}] = &at_1;
  deliver_to_0(3);
  deliver_to_0(4);  // no sink at endpoint 0: dropped
  EXPECT_EQ(at_0.files, std::vector<FileId>{3});
  EXPECT_TRUE(at_1.files.empty());  // the lookup is per endpoint
}

TEST_F(ServiceFixture, SingleFileProtocolWorksThroughService) {
  open_everywhere(1);
  // Both writes land at t=0, so staleness stays flat; the numerical gap is
  // what drives the level below the hint.
  node(2, 1).write("a", 1.0);
  node(7, 1).write("b", 9.0);
  sim_.run_until(sec(40));
  // Hint control resolved the conflict through the routed endpoint.
  EXPECT_EQ(node(2, 1).store().content_digest(),
            node(7, 1).store().content_digest());
}

TEST_F(ServiceFixture, FilesHaveIndependentTopLayers) {
  open_everywhere(1);
  open_everywhere(2);
  // Writers of file 1: nodes 2 and 7.  Writers of file 2: nodes 4 and 9.
  for (int i = 0; i < 4; ++i) {
    node(2, 1).write("f1", 0.1);
    node(7, 1).write("f1", 0.1);
    node(4, 2).write("f2", 0.1);
    node(9, 2).write("f2", 0.1);
    sim_.run_until(sim_.now() + sec(5));
  }
  sim_.run_until(sim_.now() + sec(10));
  EXPECT_EQ(node(0, 1).top_layer(), (std::vector<NodeId>{2, 7}));
  EXPECT_EQ(node(0, 2).top_layer(), (std::vector<NodeId>{4, 9}));
}

TEST_F(ServiceFixture, ConflictInOneFileDoesNotTouchAnother) {
  open_everywhere(1);
  open_everywhere(2);
  // File 2 is quiet and consistent; file 1 has a conflict.  Warm file 1's
  // writers first so its top layer exists before the conflicting writes.
  node(4, 2).write("quiet", 1.0);
  node(2, 1).write("warm", 0.0);
  node(7, 1).write("warm", 0.0);
  sim_.run_until(sim_.now() + sec(10));
  // The hint controller resolves the dip quickly; capture it via listener.
  double min_level = 1.0;
  node(2, 1).set_level_listener(
      [&](const LevelSample& s) { min_level = std::min(min_level, s.level); });
  node(2, 1).write("a", 1.0);
  node(7, 1).write("b", 8.0);
  sim_.run_until(sim_.now() + sec(3));
  EXPECT_LT(min_level, 1.0);
  // File 2's store is untouched by file 1's conflict and resolution.
  const auto digest_before = node(4, 2).store().content_digest();
  sim_.run_until(sim_.now() + sec(20));
  EXPECT_EQ(node(4, 2).store().content_digest(), digest_before);
  EXPECT_EQ(node(4, 2).store().update_count(), 1u);
}

TEST_F(ServiceFixture, PerFileConfigIndependent) {
  IdeaConfig strict = file_config();
  strict.controller.hint = 0.99;
  IdeaConfig lax = file_config();
  lax.controller.hint = 0.5;
  IdeaNode& f1 = open(0, 1, strict);
  IdeaNode& f2 = open(0, 2, lax);
  EXPECT_DOUBLE_EQ(f1.controller().hint(), 0.99);
  EXPECT_DOUBLE_EQ(f2.controller().hint(), 0.5);
  f1.set_resolution(1);
  f2.set_resolution(3);
  EXPECT_EQ(f1.config().resolution.policy.policy,
            ResolutionPolicy::kInvalidateBoth);
  EXPECT_EQ(f2.config().resolution.policy.policy,
            ResolutionPolicy::kPriority);
}

TEST_F(ServiceFixture, MessagesForUnopenedFilesDropped) {
  open_everywhere(1);
  // Node 0 additionally opens file 3 that nobody else has.
  open(0, 3, file_config()).start();
  node(0, 3).write("lonely", 1.0);
  sim_.run_until(sim_.now() + sec(20));  // must not crash anywhere
  EXPECT_EQ(node(0, 3).store().update_count(), 1u);
}

}  // namespace
}  // namespace idea::core
