#include "apps/booking.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

#include "shard/sharded_cluster.hpp"

namespace idea::apps {

namespace {

/// A seat's price is drawn uniformly from this range.
constexpr double kPriceMin = 80.0;
constexpr double kPriceMax = 400.0;

}  // namespace

BookingSystem::BookingSystem(core::IdeaCluster& cluster,
                             std::vector<NodeId> servers,
                             BookingParams params, std::uint64_t seed)
    : cluster_(cluster), servers_(std::move(servers)), params_(params),
      rng_(seed) {}

bool BookingSystem::try_book(NodeId server) {
  const std::int64_t viewed_remaining = seats_remaining_view(server);
  const std::uint64_t truly_sold = global_live_bookings();
  const bool seats_truly_available = truly_sold < params_.capacity;

  if (viewed_remaining <= 0) {
    ++sold_out_;
    // The view says full; if seats actually remain, this is underselling.
    if (seats_truly_available) ++undersold_;
    return false;
  }
  const double price = rng_.uniform(kPriceMin, kPriceMax);
  char content[64];
  std::snprintf(content, sizeof(content), "seat@%.2f", price);
  if (!cluster_.node(server).write(content, price)) {
    // Blocked by an in-flight resolution: the §5.2 "system is kind of
    // locked" window.  The customer walks away.
    ++blocked_;
    if (seats_truly_available) ++undersold_;
    return false;
  }
  ++sold_;
  return true;
}

std::int64_t BookingSystem::seats_remaining_view(NodeId server) const {
  return static_cast<std::int64_t>(params_.capacity) -
         static_cast<std::int64_t>(live_bookings(server));
}

std::uint64_t BookingSystem::live_bookings(NodeId server) const {
  std::uint64_t n = 0;
  for (const auto& u : cluster_.node(server).store().ordered_contents()) {
    if (!u.invalidated) ++n;
  }
  return n;
}

std::uint64_t BookingSystem::global_live_bookings() const {
  // Union of all servers' live histories — what a perfectly consistent
  // system would know.  Count distinct update keys across replicas.
  std::uint64_t best = 0;
  // Each booking is written exactly once, so the union size equals the sum
  // of per-writer maxima of sequence counts.
  std::map<NodeId, std::uint64_t> per_writer;
  for (NodeId s : servers_) {
    const vv::VersionVector counts = cluster_.node(s).store().evv().counts();
    for (const auto& [w, c] : counts.entries()) {
      auto& slot = per_writer[w];
      slot = std::max(slot, c);
    }
  }
  for (const auto& [w, c] : per_writer) best += c;
  return best;
}

std::int64_t BookingSystem::oversell_amount() const {
  return std::max<std::int64_t>(
      0, static_cast<std::int64_t>(global_live_bookings()) -
             static_cast<std::int64_t>(params_.capacity));
}

double BookingSystem::revenue_view(NodeId server) const {
  return cluster_.node(server).store().meta_value();
}

void BookingSystem::audit(NodeId controller_node) {
  auto& controller = cluster_.node(controller_node).controller();
  const std::int64_t oversell = oversell_amount();
  if (oversell > last_audited_oversell_) {
    controller.notify_oversell();
  }
  if (undersold_ > last_audited_undersell_) {
    controller.notify_undersell();
  }
  last_audited_oversell_ = oversell;
  last_audited_undersell_ = undersold_;
}

// ---------------------------------------------------------------------------
// BookingDesks (sharded deployment, session API)
// ---------------------------------------------------------------------------

BookingDesks::BookingDesks(shard::ShardedCluster& cluster, FileId flight,
                           std::vector<NodeId> desks, BookingParams params,
                           std::uint64_t seed, client::ConsistencyLevel level)
    : flight_(flight),
      desks_(std::move(desks)),
      params_(params),
      rng_(seed),
      client_(cluster) {
  sessions_.reserve(desks_.size());
  client::SessionOptions options;
  options.level = level;
  for (NodeId d : desks_) {
    options.origin = d;
    sessions_.push_back(client_.session(options));
  }
  if (!sessions_.empty()) sessions_.front().open(flight_);
}

client::ClientSession& BookingDesks::session_of(NodeId desk) {
  const auto it = std::find(desks_.begin(), desks_.end(), desk);
  assert(it != desks_.end() && "unknown booking desk");
  return sessions_[static_cast<std::size_t>(it - desks_.begin())];
}

std::int64_t BookingDesks::live_bookings(const client::ReadResult& view) {
  std::int64_t n = 0;
  for (const replica::Update& u : *view.updates) {
    if (!u.invalidated) ++n;
  }
  return n;
}

std::int64_t BookingDesks::seats_remaining_view(NodeId desk) {
  const client::OpHandle<client::ReadResult> handle =
      session_of(desk).read(flight_);
  if (!handle.ok()) return static_cast<std::int64_t>(params_.capacity);
  return static_cast<std::int64_t>(params_.capacity) -
         live_bookings(handle.value());
}

bool BookingDesks::try_book(NodeId desk) {
  if (seats_remaining_view(desk) <= 0) {
    ++sold_out_;
    return false;
  }
  const double price = rng_.uniform(kPriceMin, kPriceMax);
  char content[64];
  std::snprintf(content, sizeof(content), "seat@%.2f", price);
  if (!session_of(desk).put(flight_, content, price).ok()) {
    ++blocked_;
    return false;
  }
  ++sold_;
  return true;
}

std::int64_t BookingDesks::oversell_amount() {
  if (sessions_.empty()) return 0;
  const client::OpHandle<client::ReadResult> strong =
      sessions_.front().read(flight_, client::ConsistencyLevel::strong());
  if (!strong.ok()) return 0;
  const std::int64_t sold = live_bookings(strong.value());
  const auto capacity = static_cast<std::int64_t>(params_.capacity);
  return sold > capacity ? sold - capacity : 0;
}

}  // namespace idea::apps
