#pragma once
/// \file booking.hpp
/// \brief Emulated airline ticket booking system (§3.2, §5.2) — the
///        asynchronous, fully-automatic application.
///
/// Several booking servers each track sales against one flight's replicated
/// record.  A server sells a seat if *its replica* shows seats remaining;
/// because other servers' sales propagate only at resolution time, the
/// system can oversell (sold more than capacity — discovered when histories
/// merge) or undersell (a customer turned away while resolution blocked the
/// server, or because stale double-counted state looked full).  The
/// controller's fully-automatic mode consumes these business signals to
/// learn the frequency bounds of §5.2.

#include <vector>

#include "client/session.hpp"
#include "core/cluster.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace idea::shard {
class ShardedCluster;
}

namespace idea::apps {

/// Seat prices are drawn from a fixed 80-400 range (booking.cpp).
struct BookingParams {
  std::uint32_t capacity = 200;  ///< Seats on the flight.
};

class BookingSystem {
 public:
  BookingSystem(core::IdeaCluster& cluster, std::vector<NodeId> servers,
                BookingParams params, std::uint64_t seed);

  /// A customer asks `server` for a seat.  Returns true when a booking was
  /// written.  Refusals are classified: `blocked` (resolution in flight) or
  /// `sold_out_view` (the server's replica shows no seats).
  bool try_book(NodeId server);

  /// Seats this server believes remain (capacity minus live bookings in its
  /// replica).
  [[nodiscard]] std::int64_t seats_remaining_view(NodeId server) const;

  /// Bookings currently live (non-invalidated) in a server's replica.
  [[nodiscard]] std::uint64_t live_bookings(NodeId server) const;

  /// Business outcome from the most complete replica: amount sold beyond
  /// capacity (oversell) once all histories are merged.
  [[nodiscard]] std::int64_t oversell_amount() const;

  /// Customers turned away while seats were actually available system-wide.
  [[nodiscard]] std::uint64_t undersell_count() const {
    return undersold_;
  }

  [[nodiscard]] std::uint64_t sold() const { return sold_; }
  [[nodiscard]] std::uint64_t refused_blocked() const { return blocked_; }
  [[nodiscard]] std::uint64_t refused_sold_out() const { return sold_out_; }
  [[nodiscard]] double revenue_view(NodeId server) const;

  /// Periodic business audit (run on a sim timer by benches): detects
  /// oversell/undersell episodes since the last audit and feeds the
  /// designated node's adaptive controller.
  void audit(NodeId controller_node);

  [[nodiscard]] const std::vector<NodeId>& servers() const {
    return servers_;
  }

 private:
  /// Ground truth: total bookings ever written anywhere (live).
  [[nodiscard]] std::uint64_t global_live_bookings() const;

  core::IdeaCluster& cluster_;
  std::vector<NodeId> servers_;
  BookingParams params_;
  Rng rng_;

  std::uint64_t sold_ = 0;
  std::uint64_t blocked_ = 0;
  std::uint64_t sold_out_ = 0;
  std::uint64_t undersold_ = 0;
  std::int64_t last_audited_oversell_ = 0;
  std::uint64_t last_audited_undersell_ = 0;
};

/// The booking system as a sharded-cluster tenant: one flight-record
/// file placed on the ring, each selling desk a client session attached
/// at its own endpoint.  A desk decides from the view its declared
/// consistency level routes to — a stale nearest-replica view can
/// oversell exactly the way the paper's asynchronous servers do, while
/// Strong desks never see stale seat counts — and bookings are written
/// through the session as strong puts.
class BookingDesks {
 public:
  BookingDesks(
      shard::ShardedCluster& cluster, FileId flight,
      std::vector<NodeId> desks, BookingParams params, std::uint64_t seed,
      client::ConsistencyLevel level = client::ConsistencyLevel::strong());

  /// A customer asks `desk` for a seat.  True when a booking was
  /// written; refusals split into blocked (resolution in flight) and
  /// sold-out-view (the routed view shows no seats).
  bool try_book(NodeId desk);

  /// Seats this desk believes remain, per its session's routed view.
  [[nodiscard]] std::int64_t seats_remaining_view(NodeId desk);

  /// Amount sold beyond capacity per the coordinator's (strong) view.
  [[nodiscard]] std::int64_t oversell_amount();

  [[nodiscard]] std::uint64_t sold() const { return sold_; }
  [[nodiscard]] std::uint64_t refused_blocked() const { return blocked_; }
  [[nodiscard]] std::uint64_t refused_sold_out() const { return sold_out_; }
  [[nodiscard]] const std::vector<NodeId>& desks() const { return desks_; }

 private:
  [[nodiscard]] client::ClientSession& session_of(NodeId desk);
  [[nodiscard]] static std::int64_t live_bookings(
      const client::ReadResult& view);

  FileId flight_;
  std::vector<NodeId> desks_;
  BookingParams params_;
  Rng rng_;
  client::Client client_;
  std::vector<client::ClientSession> sessions_;  ///< Parallel to desks_.

  std::uint64_t sold_ = 0;
  std::uint64_t blocked_ = 0;
  std::uint64_t sold_out_ = 0;
};

}  // namespace idea::apps
