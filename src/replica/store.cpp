#include "replica/store.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>
#include <utility>

namespace idea::replica {

namespace {

/// The view every store starts with: one allocation shared by all empty
/// stores.  Never mutated, since the shared copy keeps its use count above
/// one and so every store clones it on its first write.
const std::shared_ptr<std::vector<Update>>& empty_view() {
  static const auto empty = std::make_shared<std::vector<Update>>();
  return empty;
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

/// The first entry of `writers` not before `writer`.
template <typename Logs>
auto writer_entry(Logs& writers, NodeId writer) {
  return std::lower_bound(
      writers.begin(), writers.end(), writer,
      [](const auto& w, NodeId id) { return w.writer < id; });
}

}  // namespace

ReplicaStore::ReplicaStore(NodeId node, FileId file)
    : node_(node), file_(file), view_(empty_view()) {}

const Update& ReplicaStore::apply_local(SimTime local_now,
                                        std::string content,
                                        double meta_delta) {
  Update u;
  u.key = UpdateKey{node_, local_seq() + 1};
  u.file = file_;
  u.stamp = local_now;
  u.content = std::move(content);
  u.meta_delta = meta_delta;
  const std::size_t first_new = update_count();
  append(std::move(u));
  place_tail(first_new);
  refold_after(node_);
  mutated();
  return (*view_)[writer_log(node_).at.back()];
}

bool ReplicaStore::apply_remote(const Update& u) {
  assert(u.file == file_);
  if (has(u.key)) return true;
  const std::size_t first_new = update_count();
  if (!arrive(u)) return false;
  place_tail(first_new);
  refold_after(u.key.writer);
  mutated();
  return true;
}

const Update* ReplicaStore::find(const UpdateKey& key) const {
  if (!has(key)) return nullptr;
  return &(*view_)[position(key)];
}

std::vector<Update> ReplicaStore::updates_ahead_of(
    const vv::VersionVector& peer_counts) const {
  // By seq contiguity writer w's missing updates are its seqs from
  // C[w] + 1 on, so a writer the peer is not behind on costs nothing.
  std::vector<Update> out;
  for (const WriterLog& w : writers_) {
    for (std::uint64_t i = peer_counts.get(w.writer); i < w.at.size(); ++i) {
      out.push_back((*view_)[w.at[i]]);
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
  out.reserve(update_count());
  for (const WriterLog& w : writers_) {
    for (const std::uint32_t at : w.at) out.push_back((*view_)[at]);
  }
  return out;
}

ReplicaStore::ImportReport ReplicaStore::import_log(
    const std::vector<Update>& updates) {
  ImportReport report;
  const std::size_t before = update_count();
  NodeId lowest = std::numeric_limits<NodeId>::max();
  std::uint64_t arrived = 0;
  for (const Update& u : updates) {
    if (has(u.key)) {
      const std::uint32_t at = position(u.key);
      if (u.invalidated && !(*view_)[at].invalidated) {
        writable_view()[at].invalidated = true;
        ++report.invalidation_merges;
      } else {
        ++report.duplicates;
      }
      continue;
    }
    if (arrive(u)) {
      ++arrived;
      lowest = std::min(lowest, u.key.writer);
    } else {
      ++report.parked;
    }
  }
  place_tail(before);
  const bool merged = report.invalidation_merges > 0;
  if (merged) {
    // A merged flag changes sums the fold already holds; one walk
    // settles the whole batch.
    rewalk_meta();
  } else if (arrived > 0) {
    // Every touched writer's entry already holds its own additions, in
    // seq order; re-adding the ranges after the lowest one finishes the
    // fold exactly as per-update refolds would have.
    refold_after(lowest);
  }
  // One mutation per update apply_remote would have applied, and one
  // for the flags.
  if (arrived > 0 || merged) mutated(arrived + (merged ? 1 : 0));
  report.applied = update_count() - before;
  return report;
}

bool ReplicaStore::invalidate(const UpdateKey& key) {
  if (!has(key)) return false;
  const std::uint32_t at = position(key);
  if (!(*view_)[at].invalidated) {
    writable_view()[at].invalidated = true;
    rewalk_meta();
    mutated();
  }
  return true;
}

std::size_t ReplicaStore::rollback_to(SimTime t) {
  std::erase_if(pending_,
                [t](const auto& entry) { return entry.second.stamp > t; });
  // The view is stamp-ordered: the dropped updates are its tail.
  const auto kept =
      std::partition_point(view_->begin(), view_->end(),
                           [t](const Update& u) { return u.stamp <= t; });
  const auto cut = static_cast<std::size_t>(kept - view_->begin());
  const std::size_t dropped = update_count() - cut;
  if (dropped == 0) return 0;
  std::vector<Update>& view = writable_view();
  view.erase(view.begin() + static_cast<std::ptrdiff_t>(cut), view.end());
  // A writer's stamps are non-decreasing, so its dropped updates are a
  // suffix of its seqs (the positions past the cut), and the rest is
  // still a valid prefix.  Rebuild the EVV from it.
  vv::ExtendedVersionVector fresh;
  for (WriterLog& w : writers_) {
    w.at.erase(std::lower_bound(w.at.begin(), w.at.end(), cut), w.at.end());
    for (const std::uint32_t at : w.at) {
      fresh.record_update(w.writer, view[at].stamp, 0.0);
    }
  }
  std::erase_if(writers_, [](const WriterLog& w) { return w.at.empty(); });
  fresh.set_triple(evv_.triple());
  evv_ = std::move(fresh);
  rewalk_meta();
  mutated();
  return dropped;
}

std::uint64_t ReplicaStore::content_digest() const {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL ^ file_;
  for (const Update& u : *view_) {
    if (u.invalidated) continue;
    h = mix64(h ^ u.key.writer);
    h = mix64(h ^ u.key.seq);
    h = mix64(h ^ static_cast<std::uint64_t>(u.stamp));
    for (char c : u.content) h = mix64(h ^ static_cast<std::uint8_t>(c));
  }
  return h;
}

std::vector<Update>& ReplicaStore::writable_view() {
  if (view_.use_count() != 1) {
    auto clone = std::make_shared<std::vector<Update>>();
    clone->reserve(view_->capacity());
    clone->assign(view_->begin(), view_->end());
    view_ = std::move(clone);
  }
  return *view_;
}

bool ReplicaStore::arrive(const Update& u) {
  const NodeId writer = u.key.writer;
  const std::uint64_t known = evv_.count_of(writer);
  if (u.key.seq != known + 1) {
    // A predecessor is still in flight; park this update until it lands.
    if (u.key.seq > known + 1) pending_.emplace(u.key, u);
    return false;
  }
  append(u);
  // Drain any parked successors that are now applicable.
  const auto successor = [&] {
    return pending_.find(UpdateKey{writer, evv_.count_of(writer) + 1});
  };
  for (auto next = successor(); next != pending_.end(); next = successor()) {
    append(std::move(pending_.extract(next).mapped()));
  }
  return true;
}

void ReplicaStore::append(Update u) {
  std::vector<Update>& view = writable_view();
  evv_.record_update(u.key.writer, u.stamp, 0.0);
  WriterLog& w = writer_log(u.key.writer);
  w.at.push_back(static_cast<std::uint32_t>(view.size()));
  // u is its writer's last seq, so its key sorts last among its writer's.
  if (u.invalidated) {
    invalidated_.insert(
        std::upper_bound(invalidated_.begin(), invalidated_.end(), u.key),
        u.key);
  } else {
    w.fold += u.meta_delta;
  }
  view.push_back(std::move(u));
}

void ReplicaStore::place_tail(std::size_t first_new) {
  std::vector<Update>& view = *view_;
  const auto first = view.begin() + static_cast<std::ptrdiff_t>(first_new);
  if (first == view.end()) return;
  const CanonicalOrder less;
  const bool sorted = std::is_sorted(first, view.end(), less);
  if (!sorted) std::sort(first, view.end(), less);
  auto from = first;
  if (first != view.begin() && less(*first, *std::prev(first))) {
    from = std::upper_bound(view.begin(), first, *first, less);
    std::inplace_merge(from, first, view.end(), less);
  } else if (sorted) {
    return;  // appended in canonical order: nothing moved
  }
  for (auto it = from; it != view.end(); ++it) {
    writer_log(it->key.writer).at[it->key.seq - 1] =
        static_cast<std::uint32_t>(it - view.begin());
  }
}

std::uint32_t ReplicaStore::position(const UpdateKey& key) const {
  return writer_entry(writers_, key.writer)->at[key.seq - 1];
}

ReplicaStore::WriterLog& ReplicaStore::writer_log(NodeId writer) {
  auto w = writer_entry(writers_, writer);
  if (w == writers_.end() || w->writer != writer) {
    // A new writer's range starts where the walk leaves its predecessor.
    const double start = w == writers_.begin() ? 0.0 : std::prev(w)->fold;
    w = writers_.insert(w, WriterLog{writer, start, {}});
  }
  return *w;
}

void ReplicaStore::refold_after(NodeId writer) {
  auto w = writer_entry(writers_, writer);
  double meta = w->fold;
  for (++w; w != writers_.end(); ++w) {
    for (const std::uint32_t at : w->at) {
      const Update& u = (*view_)[at];
      if (!u.invalidated) meta += u.meta_delta;
    }
    w->fold = meta;
  }
  evv_.set_meta(meta);
}

void ReplicaStore::rewalk_meta() {
  invalidated_.clear();
  double meta = 0.0;
  for (WriterLog& w : writers_) {
    for (const std::uint32_t at : w.at) {
      const Update& u = (*view_)[at];
      if (u.invalidated) {
        invalidated_.push_back(u.key);
      } else {
        meta += u.meta_delta;
      }
    }
    w.fold = meta;
  }
  evv_.set_meta(meta);
}

void ReplicaStore::mutated(std::uint64_t mutations) {
  mutation_count_ += mutations;
  snapshot_.reset();
  if (listener_ != nullptr) listener_->on_store_mutation();
}

}  // namespace idea::replica
