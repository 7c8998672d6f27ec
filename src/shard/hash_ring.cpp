#include "shard/hash_ring.hpp"

#include <algorithm>

namespace idea::shard {

namespace {

/// Ring points per endpoint.  More points = smoother load at the cost of
/// ring size; 64-128 is the usual sweet spot.
constexpr std::uint32_t kVnodesPerNode = 96;
/// Salt for the point and key hash streams.
constexpr std::uint64_t kSeed = 0x51A2DULL;

std::uint64_t point_hash(NodeId node, std::uint32_t vnode,
                         std::uint32_t incarnation) {
  // Double mixing decorrelates the (node, vnode) lattice; a single mix64
  // over the packed pair leaves visible stripes for small vnode counts.
  // Incarnation 0 must hash exactly as the pre-incarnation ring did, so
  // the salt only folds in for reused ids.
  std::uint64_t seed = kSeed;
  if (incarnation != 0) seed ^= mix64(0x14CA'0000ULL + incarnation);
  return mix64(seed ^ mix64((static_cast<std::uint64_t>(node) << 32) | vnode));
}

std::uint64_t key_hash(FileId file) {
  return mix64(kSeed ^ (0xF17EULL << 32) ^ file);
}

}  // namespace

HashRing::HashRing(std::uint32_t endpoints) {
  ring_.reserve(std::size_t{endpoints} * kVnodesPerNode);
  for (NodeId n = 0; n < endpoints; ++n) append_node(n, 0);
  place_points(0);
}

void HashRing::add_node(NodeId node, std::uint32_t incarnation) {
  const std::size_t first_new = ring_.size();
  if (append_node(node, incarnation)) place_points(first_new);
}

bool HashRing::append_node(NodeId node, std::uint32_t incarnation) {
  if (!nodes_.insert(node).second) return false;
  if (incarnation != 0) incarnations_[node] = incarnation;
  for (std::uint32_t v = 0; v < kVnodesPerNode; ++v) {
    ring_.push_back({point_hash(node, v, incarnation), node});
  }
  return true;
}

void HashRing::place_points(std::size_t first_new) {
  const auto first = ring_.begin() + static_cast<std::ptrdiff_t>(first_new);
  // Both steps are stable, so among equal points the first-added owner
  // comes first, and unique() keeps it.
  std::ranges::stable_sort(first, ring_.end(), {}, &Point::at);
  std::ranges::inplace_merge(ring_, first, {}, &Point::at);
  ring_.erase(std::ranges::unique(ring_, {}, &Point::at).begin(),
              ring_.end());
}

bool HashRing::remove_node(NodeId node) {
  if (nodes_.erase(node) == 0) return false;
  incarnations_.erase(node);
  std::erase_if(ring_, [node](const Point& p) { return p.owner == node; });
  return true;
}

NodeId HashRing::primary(FileId file) const {
  if (ring_.empty()) return kNoNode;
  auto it = std::ranges::lower_bound(ring_, key_hash(file), {}, &Point::at);
  if (it == ring_.end()) it = ring_.begin();  // wrap around
  return it->owner;
}

std::vector<NodeId> HashRing::replicas(FileId file, std::uint32_t k) const {
  std::vector<NodeId> group;
  if (ring_.empty() || k == 0) return group;
  const std::size_t want =
      std::min<std::size_t>(k, nodes_.size());
  group.reserve(want);
  auto it = std::ranges::lower_bound(ring_, key_hash(file), {}, &Point::at);
  while (group.size() < want) {
    if (it == ring_.end()) it = ring_.begin();
    if (std::find(group.begin(), group.end(), it->owner) == group.end()) {
      group.push_back(it->owner);
    }
    ++it;
  }
  return group;
}

RebalanceStats HashRing::rebalance(const HashRing& before,
                                   const HashRing& after,
                                   const std::vector<FileId>& keys,
                                   std::uint32_t k) {
  RebalanceStats stats;
  stats.keys = keys.size();
  for (FileId key : keys) {
    if (before.primary(key) != after.primary(key)) ++stats.moved;
    if (before.replicas(key, k) != after.replicas(key, k)) {
      ++stats.group_changed;
    }
  }
  return stats;
}

std::map<NodeId, std::size_t> HashRing::primary_load(
    const std::vector<FileId>& keys) const {
  std::map<NodeId, std::size_t> load;
  for (NodeId n : nodes_) load[n] = 0;
  for (FileId key : keys) {
    const NodeId owner = primary(key);
    if (owner != kNoNode) ++load[owner];
  }
  return load;
}

}  // namespace idea::shard
