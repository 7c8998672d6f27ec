#include "replica/store.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>

namespace idea::replica {

namespace {

using Log = std::map<UpdateKey, Update>;
using Fold = std::vector<std::pair<NodeId, double>>;

bool canonical_less(const Update* a, const Update* b) {
  return CanonicalOrder{}(*a, *b);
}

Fold::iterator fold_entry(Fold& fold, NodeId writer) {
  return std::lower_bound(
      fold.begin(), fold.end(), writer,
      [](const Fold::value_type& e, NodeId w) { return e.first < w; });
}

/// A peer's update count for `writer`, from either form of its history.
std::uint64_t peer_count(const vv::VersionVector& peer, NodeId writer) {
  return peer.get(writer);
}
std::uint64_t peer_count(const vv::ExtendedVersionVector& peer,
                         NodeId writer) {
  return peer.count_of(writer);
}

/// The lag of a peer at counts C, from the stamp lists alone: writer w
/// contributes mine − C[w] versions, the oldest stamped at seq C[w] + 1.
template <typename Peer>
ReplicaStore::StalenessProbe probe_ahead_of(
    const vv::ExtendedVersionVector& mine, const Peer& peer) {
  ReplicaStore::StalenessProbe probe;
  for (const auto& [writer, stamps] : mine.writers()) {
    const std::uint64_t theirs = peer_count(peer, writer);
    if (theirs >= stamps.size()) continue;
    const SimTime oldest = stamps[theirs];
    if (probe.versions == 0 || oldest < probe.oldest_stamp) {
      probe.oldest_stamp = oldest;
    }
    probe.versions += stamps.size() - theirs;
  }
  return probe;
}

}  // namespace

const Update& ReplicaStore::apply_local(SimTime local_now,
                                        std::string content,
                                        double meta_delta) {
  Update u;
  u.key = UpdateKey{node_, local_seq() + 1};
  u.file = file_;
  u.stamp = local_now;
  u.content = std::move(content);
  u.meta_delta = meta_delta;
  auto [it, inserted] = log_.emplace(u.key, std::move(u));
  assert(inserted);
  admit(it->second);
  refold_after(node_);
  mutated();
  return it->second;
}

bool ReplicaStore::apply_remote(const Update& u) {
  assert(u.file == file_);
  if (log_.count(u.key) > 0) return true;
  const NodeId writer = u.key.writer;
  const std::uint64_t known = evv_.count_of(writer);
  if (u.key.seq > known + 1) {
    // A predecessor is still in flight; park this update until it lands.
    pending_.emplace(u.key, u);
    return false;
  }
  if (u.key.seq <= known) return true;  // duplicate of an applied update
  admit(log_.emplace(u.key, u).first->second);
  // Drain any parked successors that are now applicable.
  const auto successor = [&] {
    return pending_.find(UpdateKey{writer, evv_.count_of(writer) + 1});
  };
  for (auto next = successor(); next != pending_.end(); next = successor()) {
    admit(log_.insert(pending_.extract(next)).position->second);
  }
  refold_after(writer);
  mutated();
  return true;
}

bool ReplicaStore::has(const UpdateKey& key) const {
  return log_.count(key) > 0;
}

const Update* ReplicaStore::find(const UpdateKey& key) const {
  auto it = log_.find(key);
  return it == log_.end() ? nullptr : &it->second;
}

std::vector<Update> ReplicaStore::updates_ahead_of(
    const vv::VersionVector& peer_counts) const {
  // The EVV names the writers the peer lags on; by seq contiguity writer
  // w's missing updates are the key range starting at {w, C[w] + 1}, so
  // a writer the peer is not behind on costs no log lookup.
  std::vector<Update> out;
  for (const auto& [writer, stamps] : evv_.writers()) {
    const std::uint64_t theirs = peer_counts.get(writer);
    if (theirs >= stamps.size()) continue;
    for (auto it = log_.lower_bound(UpdateKey{writer, theirs + 1});
         it != log_.end() && it->first.writer == writer; ++it) {
      out.push_back(it->second);
    }
  }
  return out;
}

ReplicaStore::StalenessProbe ReplicaStore::staleness_ahead_of(
    const vv::VersionVector& peer_counts) const {
  return probe_ahead_of(evv_, peer_counts);
}

ReplicaStore::StalenessProbe ReplicaStore::staleness_ahead_of(
    const vv::ExtendedVersionVector& peer) const {
  return probe_ahead_of(evv_, peer);
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
        ++report.invalidation_merges;
      } else {
        ++report.duplicates;
      }
      continue;
    }
    apply_remote(u);
  }
  if (report.invalidation_merges > 0) {
    // A merged flag changes sums the fold already holds; one walk
    // settles the whole batch.
    rewalk_meta();
    mutated();
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
    rewalk_meta();
    mutated();
  }
  return true;
}

std::size_t ReplicaStore::rollback_to(SimTime t) {
  const auto after_cut = [t](const auto& entry) {
    return entry.second.stamp > t;
  };
  std::erase_if(pending_, after_cut);
  // The index points into the log's nodes, so unindex first.  It is
  // stamp-ordered: the dropped updates are its tail.
  canonical_.erase(
      std::partition_point(canonical_.begin(), canonical_.end(),
                           [t](const Update* u) { return u->stamp <= t; }),
      canonical_.end());
  const std::size_t dropped = std::erase_if(log_, after_cut);
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
    rewalk_meta();
    mutated();
  }
  return dropped;
}

std::vector<Update> ReplicaStore::ordered_contents() const {
  std::vector<Update> out;
  out.reserve(canonical_.size());
  for (const Update* u : canonical_) out.push_back(*u);
  return out;
}

std::uint64_t ReplicaStore::content_digest() const {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ file_;
  for (const Update* u : canonical_) {
    if (u->invalidated) continue;
    h = mix64(h ^ u->key.writer);
    h = mix64(h ^ u->key.seq);
    h = mix64(h ^ static_cast<std::uint64_t>(u->stamp));
    for (char c : u->content) h = mix64(h ^ static_cast<std::uint8_t>(c));
  }
  return h;
}

void ReplicaStore::admit(const Update& u) {
  evv_.record_update(u.key.writer, u.stamp, 0.0);
  canonical_.insert(std::upper_bound(canonical_.begin(), canonical_.end(),
                                     &u, canonical_less),
                    &u);
  auto entry = fold_entry(meta_fold_, u.key.writer);
  if (entry == meta_fold_.end() || entry->first != u.key.writer) {
    // A new writer's range starts where the walk leaves its predecessor.
    const double start =
        entry == meta_fold_.begin() ? 0.0 : std::prev(entry)->second;
    entry = meta_fold_.emplace(entry, u.key.writer, start);
  }
  // u is its writer's last seq, so its key sorts last among its writer's.
  if (u.invalidated) {
    invalidated_.insert(
        std::upper_bound(invalidated_.begin(), invalidated_.end(), u.key),
        u.key);
  } else {
    entry->second += u.meta_delta;
  }
}

void ReplicaStore::refold_after(NodeId writer) {
  auto entry = fold_entry(meta_fold_, writer);
  double meta = entry->second;
  for (auto it = log_.upper_bound(
           UpdateKey{writer, std::numeric_limits<std::uint64_t>::max()});
       it != log_.end(); ++it) {
    if (it->first.writer != entry->first) ++entry;  // next writer's range
    if (!it->second.invalidated) meta += it->second.meta_delta;
    entry->second = meta;
  }
  evv_.set_meta(meta);
}

void ReplicaStore::rewalk_meta() {
  meta_fold_.clear();
  invalidated_.clear();
  double meta = 0.0;
  for (const auto& [key, u] : log_) {
    if (meta_fold_.empty() || meta_fold_.back().first != key.writer) {
      meta_fold_.emplace_back(key.writer, meta);
    }
    if (u.invalidated) {
      invalidated_.push_back(key);
    } else {
      meta += u.meta_delta;
    }
    meta_fold_.back().second = meta;
  }
  evv_.set_meta(meta);
}

void ReplicaStore::mutated() {
  ++mutation_count_;
  snapshot_.reset();
  contents_snapshot_.reset();
  if (listener_ != nullptr) listener_->on_store_mutation();
}

}  // namespace idea::replica
