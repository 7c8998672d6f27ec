#include "apps/booking.hpp"

#include <gtest/gtest.h>

#include "shard/sharded_cluster.hpp"

namespace idea::apps {
namespace {

core::ClusterConfig booking_cluster() {
  core::ClusterConfig cfg;
  cfg.nodes = 10;
  cfg.sync_sizes();
  cfg.idea.controller.mode = core::AdaptiveMode::kFullyAutomatic;
  return cfg;
}

TEST(Booking, SellsWhileSeatsVisible) {
  core::IdeaCluster cluster(booking_cluster());
  cluster.start();
  BookingParams bp;
  bp.capacity = 100;
  BookingSystem booking(cluster, {1, 4, 7}, bp, 5);
  cluster.warm_up({1, 4, 7}, sec(20));
  EXPECT_TRUE(booking.try_book(1));
  EXPECT_EQ(booking.sold(), 1u);
  EXPECT_GT(booking.revenue_view(1), 0.0);
}

TEST(Booking, ViewCountsOnlyLocalKnowledge) {
  core::IdeaCluster cluster(booking_cluster());
  cluster.start();
  BookingParams bp;
  bp.capacity = 100;
  BookingSystem booking(cluster, {1, 4}, bp, 5);
  cluster.warm_up({1, 4}, sec(20));
  booking.try_book(1);
  booking.try_book(4);
  // Without resolution, each server only sees its own sale (plus warmup).
  EXPECT_EQ(booking.live_bookings(1), booking.live_bookings(4));
  const auto remaining = booking.seats_remaining_view(1);
  EXPECT_EQ(remaining, 100 - static_cast<std::int64_t>(
                                 booking.live_bookings(1)));
}

TEST(Booking, OversellDiscoveredOnMerge) {
  core::IdeaCluster cluster(booking_cluster());
  cluster.start();
  BookingParams bp;
  bp.capacity = 4;
  BookingSystem booking(cluster, {1, 4}, bp, 5);
  cluster.warm_up({1, 4}, sec(20));
  // Each server sees 1 warmup booking + its own sales: sells to its
  // local view of capacity, jointly exceeding it.
  for (int i = 0; i < 3; ++i) {
    booking.try_book(1);
    booking.try_book(4);
  }
  EXPECT_GT(booking.oversell_amount(), 0);
}

TEST(Booking, SoldOutViewRefuses) {
  core::IdeaCluster cluster(booking_cluster());
  cluster.start();
  BookingParams bp;
  bp.capacity = 3;
  BookingSystem booking(cluster, {1}, bp, 5);
  cluster.warm_up({1}, sec(10));
  // Warmup wrote 1; sell until the view says full.
  EXPECT_TRUE(booking.try_book(1));
  EXPECT_TRUE(booking.try_book(1));
  EXPECT_FALSE(booking.try_book(1));
  EXPECT_EQ(booking.refused_sold_out(), 1u);
  // With one server the refusal is correct, not an undersell.
  EXPECT_EQ(booking.undersell_count(), 0u);
}

TEST(Booking, BlockedSaleCountsAsUndersellWhenSeatsExist) {
  core::IdeaCluster cluster(booking_cluster());
  cluster.start();
  BookingParams bp;
  bp.capacity = 100;
  BookingSystem booking(cluster, {1, 4}, bp, 5);
  cluster.warm_up({1, 4}, sec(20));
  cluster.node(1).demand_active_resolution();
  cluster.run_for(msec(300));  // mid-round: writes blocked
  const bool sold = booking.try_book(1);
  if (!sold) {
    EXPECT_GE(booking.refused_blocked() + booking.refused_sold_out(), 1u);
    EXPECT_GE(booking.undersell_count(), 1u);
  }
  cluster.run_for(sec(10));
}

TEST(Booking, ResolutionAlignsViews) {
  core::IdeaCluster cluster(booking_cluster());
  cluster.start();
  BookingParams bp;
  bp.capacity = 50;
  BookingSystem booking(cluster, {1, 4}, bp, 5);
  cluster.warm_up({1, 4}, sec(20));
  booking.try_book(1);
  booking.try_book(4);
  booking.try_book(4);
  cluster.node(1).demand_active_resolution();
  cluster.run_for(sec(10));
  // After resolution both servers see every live booking.
  EXPECT_EQ(booking.live_bookings(1), booking.live_bookings(4));
  EXPECT_EQ(booking.seats_remaining_view(1),
            booking.seats_remaining_view(4));
}

TEST(Booking, AuditFeedsControllerBounds) {
  core::IdeaCluster cluster(booking_cluster());
  cluster.start();
  BookingParams bp;
  bp.capacity = 3;
  BookingSystem booking(cluster, {1, 4}, bp, 5);
  cluster.warm_up({1, 4}, sec(20));
  for (int i = 0; i < 3; ++i) {
    booking.try_book(1);
    booking.try_book(4);
  }
  ASSERT_GT(booking.oversell_amount(), 0);
  const double before = cluster.node(1).controller().learned_min_freq();
  booking.audit(1);
  EXPECT_GT(cluster.node(1).controller().learned_min_freq(), before);
  // Second audit without new oversell: no further tightening.
  const double after = cluster.node(1).controller().learned_min_freq();
  booking.audit(1);
  EXPECT_DOUBLE_EQ(cluster.node(1).controller().learned_min_freq(), after);
}

TEST(Booking, DesksRunOverSessionsAndStrongDesksNeverOversell) {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = 6;
  cfg.replication = 3;
  cfg.seed = 99;
  cfg.sync_sizes();
  shard::ShardedCluster cluster(cfg);

  BookingParams bp;
  bp.capacity = 10;
  const FileId flight = 1;
  // Strong desks decide from the coordinator's view: they can never
  // oversell, because every booking is visible before the next decision.
  BookingDesks desks(cluster, flight, {0, 1, 3}, bp, 7,
                     client::ConsistencyLevel::strong());
  std::uint64_t attempts = 0;
  for (int round = 0; round < 8; ++round) {
    for (NodeId d : desks.desks()) {
      desks.try_book(d);
      ++attempts;
      cluster.run_for(msec(100));
    }
  }
  EXPECT_GT(attempts, bp.capacity);
  EXPECT_EQ(desks.sold(), bp.capacity);
  EXPECT_EQ(desks.oversell_amount(), 0);
  EXPECT_GT(desks.refused_sold_out(), 0u);
  EXPECT_EQ(desks.seats_remaining_view(0), 0);
}

}  // namespace
}  // namespace idea::apps
