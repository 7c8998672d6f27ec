#include "replica/store.hpp"

#include <algorithm>
#include <cassert>

namespace idea::replica {

const Update& ReplicaStore::apply_local(SimTime local_now,
                                        std::string content,
                                        double meta_delta) {
  Update u;
  u.key = UpdateKey{node_, ++local_seq_};
  u.file = file_;
  u.stamp = local_now;
  u.content = std::move(content);
  u.meta_delta = meta_delta;
  auto [it, inserted] = log_.emplace(u.key, std::move(u));
  assert(inserted);
  evv_.record_update(node_, it->second.stamp, 0.0);
  recompute_meta();
  return it->second;
}

bool ReplicaStore::apply_remote(const Update& u) {
  assert(u.file == file_);
  if (log_.count(u.key) > 0) return true;
  const std::uint64_t known = evv_.count_of(u.key.writer);
  if (u.key.seq > known + 1) {
    // A predecessor is still in flight; park this update until it lands.
    pending_.emplace(u.key, u);
    return false;
  }
  if (u.key.seq <= known) return true;  // duplicate of an applied update
  log_.emplace(u.key, u);
  evv_.record_update(u.key.writer, u.stamp, 0.0);
  if (u.key.writer == node_ && u.key.seq > local_seq_) {
    local_seq_ = u.key.seq;  // rejoining after rollback of our own state
  }
  // Drain any parked successors that are now applicable.
  for (auto it = pending_.find(UpdateKey{u.key.writer, u.key.seq + 1});
       it != pending_.end() &&
       it->first.writer == u.key.writer &&
       it->first.seq == evv_.count_of(u.key.writer) + 1;
       it = pending_.find(
           UpdateKey{u.key.writer, evv_.count_of(u.key.writer) + 1})) {
    log_.emplace(it->first, it->second);
    evv_.record_update(it->first.writer, it->second.stamp, 0.0);
    if (it->first.writer == node_ && it->first.seq > local_seq_) {
      local_seq_ = it->first.seq;
    }
    pending_.erase(it);
  }
  recompute_meta();
  return true;
}

bool ReplicaStore::has(const UpdateKey& key) const {
  return log_.count(key) > 0;
}

const Update* ReplicaStore::find(const UpdateKey& key) const {
  auto it = log_.find(key);
  return it == log_.end() ? nullptr : &it->second;
}

namespace {

using Log = std::map<UpdateKey, Update>;

/// A peer's update count for `writer`, from either form of its history.
std::uint64_t peer_count(const vv::VersionVector& peer, NodeId writer) {
  return peer.get(writer);
}
std::uint64_t peer_count(const vv::ExtendedVersionVector& peer,
                         NodeId writer) {
  return peer.count_of(writer);
}

/// The one "what does a peer at counts C lack" walk: visit, in key order,
/// every logged update (w, seq) with seq > C[w].  The log is keyed by
/// (writer, seq), so writer w's missing updates are the contiguous range
/// starting at lower_bound({w, C[w] + 1}); the walk hops from writer to
/// writer — O(writers · log n + missing) — and stays exact when a writer's
/// keys have gaps.
template <typename Peer, typename Visit>
void walk_ahead_of(const Log& log, const Peer& peer, Visit&& visit) {
  auto it = log.begin();
  while (it != log.end()) {
    const NodeId writer = it->first.writer;
    it = log.lower_bound(UpdateKey{writer, peer_count(peer, writer) + 1});
    for (; it != log.end() && it->first.writer == writer; ++it) {
      visit(it->second);
    }
  }
}

template <typename Peer>
std::vector<Update> collect_ahead_of(const Log& log, const Peer& peer) {
  std::vector<Update> out;
  walk_ahead_of(log, peer, [&](const Update& u) { out.push_back(u); });
  return out;
}

template <typename Peer>
ReplicaStore::StalenessProbe probe_ahead_of(const Log& log,
                                            const Peer& peer) {
  ReplicaStore::StalenessProbe probe;
  walk_ahead_of(log, peer, [&](const Update& u) {
    if (probe.versions == 0 || u.stamp < probe.oldest_stamp) {
      probe.oldest_stamp = u.stamp;
    }
    ++probe.versions;
  });
  return probe;
}

}  // namespace

std::vector<Update> ReplicaStore::updates_ahead_of(
    const vv::VersionVector& peer_counts) const {
  return collect_ahead_of(log_, peer_counts);
}

std::vector<Update> ReplicaStore::updates_ahead_of(
    const vv::ExtendedVersionVector& peer) const {
  return collect_ahead_of(log_, peer);
}

ReplicaStore::StalenessProbe ReplicaStore::staleness_ahead_of(
    const vv::VersionVector& peer_counts) const {
  return probe_ahead_of(log_, peer_counts);
}

ReplicaStore::StalenessProbe ReplicaStore::staleness_ahead_of(
    const vv::ExtendedVersionVector& peer) const {
  return probe_ahead_of(log_, peer);
}

std::vector<Update> ReplicaStore::export_log() const {
  std::vector<Update> out;
  out.reserve(log_.size());
  for (const auto& [key, u] : log_) out.push_back(u);
  return out;
}

ReplicaStore::ImportReport ReplicaStore::import_log(
    const std::vector<Update>& updates) {
  ImportReport report;
  const std::size_t before = log_.size();
  for (const Update& u : updates) {
    auto it = log_.find(u.key);
    if (it != log_.end()) {
      if (u.invalidated && !it->second.invalidated) {
        it->second.invalidated = true;
        recompute_meta();
        ++report.invalidation_merges;
      } else {
        ++report.duplicates;
      }
      continue;
    }
    if (u.key.seq <= evv_.count_of(u.key.writer)) {
      // Covered by the counts but absent from the log — a hole rollback
      // can leave; nothing to (re)apply.
      ++report.duplicates;
      continue;
    }
    apply_remote(u);
  }
  // An exported log is per-writer complete, so nothing from this batch
  // stays parked in the reorder buffer; the size delta also counts any
  // previously parked successors the batch unblocked.
  report.applied = log_.size() - before;
  return report;
}

bool ReplicaStore::invalidate(const UpdateKey& key) {
  auto it = log_.find(key);
  if (it == log_.end()) return false;
  if (!it->second.invalidated) {
    it->second.invalidated = true;
    recompute_meta();
  }
  return true;
}

std::size_t ReplicaStore::rollback_to(SimTime t) {
  std::size_t dropped = 0;
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->second.stamp > t) {
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = log_.begin(); it != log_.end();) {
    if (it->second.stamp > t) {
      it = log_.erase(it);
      ++dropped;
    } else {
      ++it;
    }
  }
  if (dropped > 0) {
    // Rebuild the EVV from the surviving log.  A writer's stamps are
    // non-decreasing, so dropping stamp > t removes a per-writer suffix and
    // the remaining history is still a valid prefix.
    vv::ExtendedVersionVector fresh;
    for (const auto& [key, u] : log_) {
      fresh.record_update(key.writer, u.stamp, 0.0);
    }
    fresh.set_triple(evv_.triple());
    evv_ = std::move(fresh);
    local_seq_ = evv_.count_of(node_);
    recompute_meta();
  }
  return dropped;
}

std::vector<Update> ReplicaStore::ordered_contents() const {
  std::vector<Update> out;
  out.reserve(log_.size());
  for (const auto& [key, u] : log_) out.push_back(u);
  std::sort(out.begin(), out.end(), CanonicalOrder{});
  return out;
}

std::uint64_t ReplicaStore::content_digest() const {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ file_;
  for (const Update& u : ordered_contents()) {
    if (u.invalidated) continue;
    h = mix64(h ^ u.key.writer);
    h = mix64(h ^ u.key.seq);
    h = mix64(h ^ static_cast<std::uint64_t>(u.stamp));
    for (char c : u.content) h = mix64(h ^ static_cast<std::uint8_t>(c));
  }
  return h;
}

void ReplicaStore::recompute_meta() {
  ++mutation_count_;
  double meta = 0.0;
  invalidated_.clear();
  for (const auto& [key, u] : log_) {
    if (u.invalidated) {
      invalidated_.push_back(key);
    } else {
      meta += u.meta_delta;
    }
  }
  evv_.set_meta(meta);
  // Every content mutation funnels through here; drop the shared message
  // and read-view snapshots so the next send/read sees the new state.
  snapshot_.reset();
  contents_snapshot_.reset();
}

}  // namespace idea::replica
