#include "net/batching_transport.hpp"

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "net/sim_transport.hpp"

namespace idea::net {
namespace {

struct Recorder final : MessageHandler {
  std::vector<Message> received;
  void on_message(const Message& msg) override { received.push_back(msg); }
};

class BatchingFixture : public ::testing::Test {
 protected:
  Message make(NodeId from, NodeId to, std::string_view type,
               std::uint32_t bytes = 100) {
    Message m;
    m.from = from;
    m.to = to;
    m.file = 1;
    m.type = MsgType::intern(type);
    m.wire_bytes = bytes;
    return m;
  }

  sim::Simulator sim_;
  sim::ConstantLatency latency_{msec(10)};
  SimTransport inner_{sim_, latency_};
  BatchingTransport batching_{inner_};
  Recorder a_, b_;
};

TEST_F(BatchingFixture, SameTickSamePairCoalesces) {
  batching_.attach(0, &a_);
  batching_.attach(1, &b_);
  for (int i = 0; i < 5; ++i) batching_.send(make(0, 1, "t.x"));
  sim_.run();

  ASSERT_EQ(b_.received.size(), 5u);
  for (const Message& m : b_.received) EXPECT_EQ(m.type.name(), "t.x");
  const BatchingStats& stats = batching_.stats();
  EXPECT_EQ(stats.logical_messages, 5u);
  EXPECT_EQ(stats.envelopes, 1u);
  EXPECT_EQ(stats.largest_batch, 5u);
  // One envelope on the wire: framing + 5 * 100 payload bytes.
  EXPECT_EQ(inner_.counters().total_messages(), 1u);
  EXPECT_EQ(inner_.counters().total_bytes(), 24u + 500u);
  // The decorator's own counters kept the logical view.
  EXPECT_EQ(batching_.counters().total_messages(), 5u);
}

TEST_F(BatchingFixture, DifferentPairsDoNotMix) {
  batching_.attach(0, &a_);
  batching_.attach(1, &b_);
  batching_.send(make(0, 1, "t.x"));
  batching_.send(make(1, 0, "t.y"));
  sim_.run();

  ASSERT_EQ(b_.received.size(), 1u);
  ASSERT_EQ(a_.received.size(), 1u);
  // Two pairs, two singleton flushes, no batch envelope on the wire.
  EXPECT_EQ(batching_.stats().envelopes, 2u);
  EXPECT_EQ(inner_.counters().messages_of(BatchingTransport::kBatchType),
            0u);
}

TEST_F(BatchingFixture, LaterTickStartsNewBatch) {
  batching_.attach(0, &a_);
  batching_.attach(1, &b_);
  batching_.send(make(0, 1, "t.x"));
  sim_.run_for(msec(50));
  batching_.send(make(0, 1, "t.x"));
  sim_.run();

  EXPECT_EQ(b_.received.size(), 2u);
  EXPECT_EQ(batching_.stats().envelopes, 2u);
}

TEST_F(BatchingFixture, MaxBatchForcesEarlyFlush) {
  batching_.attach(2, &a_);
  batching_.attach(3, &b_);
  for (int i = 0; i < 2 * 64 + 1; ++i) batching_.send(make(2, 3, "t.x"));
  sim_.run();

  EXPECT_EQ(b_.received.size(), 2u * 64 + 1);
  // 64 + 64 flushed by size, the remaining 1 by the tick window.
  EXPECT_EQ(batching_.stats().flushes_by_size, 2u);
  EXPECT_EQ(batching_.stats().envelopes, 3u);
  EXPECT_EQ(batching_.stats().largest_batch, 64u);
}

TEST_F(BatchingFixture, FlushAllShipsPendingQueues) {
  batching_.attach(0, &a_);
  batching_.attach(1, &b_);
  batching_.send(make(0, 1, "t.x"));
  batching_.send(make(1, 0, "t.y"));
  batching_.flush_all();
  // Flushed before the window timers fired; delivery still takes a hop.
  EXPECT_EQ(batching_.stats().envelopes, 2u);
  sim_.run();
  EXPECT_EQ(a_.received.size(), 1u);
  EXPECT_EQ(b_.received.size(), 1u);
  // The disarmed window timers must not double-flush.
  EXPECT_EQ(batching_.stats().envelopes, 2u);
}

TEST_F(BatchingFixture, DestructionFlushesAndDisarmsTimers) {
  Recorder sink;
  inner_.attach(9, &sink);
  {
    BatchingTransport scoped(inner_);
    scoped.attach(8, &a_);
    scoped.send(make(8, 9, "t.x"));
  }  // destroyed with a queued message and an armed window timer
  // The flush happened at destruction; the armed timer was cancelled, so
  // running the simulator must not touch the dead decorator.
  sim_.run();
  ASSERT_EQ(sink.received.size(), 1u);
  EXPECT_EQ(sink.received.front().type.name(), "t.x");
  inner_.detach(9);
}

TEST_F(BatchingFixture, DetachDropsQueuedTraffic) {
  batching_.attach(0, &a_);
  batching_.attach(1, &b_);
  batching_.send(make(0, 1, "t.x"));
  batching_.detach(1);
  sim_.run();
  EXPECT_TRUE(b_.received.empty());
}

TEST_F(BatchingFixture, TimersDelegateToInner) {
  int fired = 0;
  const auto handle = batching_.call_every(msec(5), [&] { ++fired; });
  sim_.run_for(msec(26));
  EXPECT_EQ(fired, 5);
  batching_.cancel_call(handle);
  sim_.run_for(msec(20));
  EXPECT_EQ(fired, 5);
  EXPECT_EQ(batching_.now(), inner_.now());
}

}  // namespace
}  // namespace idea::net
