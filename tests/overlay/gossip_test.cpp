#include "overlay/gossip.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/sim_transport.hpp"

namespace idea::overlay {
namespace {

class GossipFixture : public ::testing::Test {
 protected:
  void Build(std::uint32_t nodes, GossipParams params) {
    params.nodes = nodes;
    transport_ = std::make_unique<net::SimTransport>(sim_, latency_);
    deliveries_.assign(nodes, 0);
    for (NodeId n = 0; n < nodes; ++n) {
      agents_.push_back(std::make_unique<GossipAgent>(
          n, *transport_, params,
          [this, n](const GossipEnvelope&) { ++deliveries_[n]; },
          2000 + n));
      transport_->attach(n, agents_.back().get());
    }
  }

  [[nodiscard]] std::size_t reached() const {
    std::size_t r = 0;
    for (auto d : deliveries_) r += d > 0 ? 1 : 0;
    return r;
  }

  sim::Simulator sim_;
  sim::ConstantLatency latency_{msec(20)};
  std::unique_ptr<net::SimTransport> transport_;
  std::vector<std::unique_ptr<GossipAgent>> agents_;
  std::vector<int> deliveries_;
};

TEST_F(GossipFixture, OriginDeliversToItself) {
  GossipParams p;
  Build(10, p);
  agents_[3]->broadcast(1, net::MsgType::intern("t"), std::string("x"), 8);
  EXPECT_EQ(deliveries_[3], 1);
}

TEST_F(GossipFixture, HighTtlReachesAlmostEveryone) {
  GossipParams p;
  p.fanout = 3;
  p.ttl = 8;
  Build(30, p);
  agents_[0]->broadcast(1, net::MsgType::intern("t"), std::string("x"), 8);
  sim_.run();
  EXPECT_GE(reached(), 28u);
}

TEST_F(GossipFixture, TtlZeroStaysLocal) {
  GossipParams p;
  p.ttl = 0;
  Build(10, p);
  agents_[0]->broadcast(1, net::MsgType::intern("t"), std::string("x"), 8);
  sim_.run();
  EXPECT_EQ(reached(), 1u);  // only the origin
}

TEST_F(GossipFixture, TtlBoundsSpread) {
  GossipParams p;
  p.fanout = 2;
  p.ttl = 1;
  Build(40, p);
  agents_[0]->broadcast(1, net::MsgType::intern("t"), std::string("x"), 8);
  sim_.run();
  // ttl=1: origin + its fanout + their fanout (sent while ttl 1 -> 0... )
  // Spread is strictly limited well below the full network.
  EXPECT_LE(reached(), 8u);
  EXPECT_GE(reached(), 3u);
}

TEST_F(GossipFixture, DedupSingleDeliveryPerNode) {
  GossipParams p;
  p.fanout = 5;
  p.ttl = 10;
  Build(10, p);
  agents_[0]->broadcast(1, net::MsgType::intern("t"), std::string("x"), 8);
  sim_.run();
  for (NodeId n = 0; n < 10; ++n) {
    EXPECT_LE(deliveries_[n], 1) << "node " << n;
  }
}

TEST_F(GossipFixture, DistinctRumorsDistinctDeliveries) {
  GossipParams p;
  p.fanout = 3;
  p.ttl = 6;
  Build(10, p);
  agents_[0]->broadcast(1, net::MsgType::intern("t"), std::string("a"), 8);
  agents_[0]->broadcast(1, net::MsgType::intern("t"), std::string("b"), 8);
  sim_.run();
  EXPECT_EQ(deliveries_[0], 2);
}

TEST_F(GossipFixture, TwoNodeNetwork) {
  GossipParams p;
  p.fanout = 3;
  p.ttl = 2;
  Build(2, p);
  agents_[0]->broadcast(1, net::MsgType::intern("t"), std::string("x"), 8);
  sim_.run();
  EXPECT_EQ(reached(), 2u);
}

TEST_F(GossipFixture, EnvelopeCarriesPayload) {
  GossipParams p;
  p.nodes = 3;
  transport_ = std::make_unique<net::SimTransport>(sim_, latency_);
  std::string got;
  NodeId origin_seen = kNoNode;
  for (NodeId n = 0; n < 3; ++n) {
    agents_.push_back(std::make_unique<GossipAgent>(
        n, *transport_, p,
        [&got, &origin_seen](const GossipEnvelope& env) {
          got = env.inner.as<std::string>();
          origin_seen = env.origin;
        },
        3000 + n));
    transport_->attach(n, agents_.back().get());
  }
  agents_[1]->broadcast(7, net::MsgType::intern("payload.test"),
                        std::string("hello"), 5);
  sim_.run();
  EXPECT_EQ(got, "hello");
  EXPECT_EQ(origin_seen, 1u);
}

}  // namespace
}  // namespace idea::overlay
