#include "vv/extended_vv.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace idea::vv {

std::size_t ExtendedVersionVector::lower_bound(NodeId writer) const {
  const auto it = std::lower_bound(
      stamps_.begin(), stamps_.end(), writer,
      [](const WriterStamps& e, NodeId w) { return e.first < w; });
  return static_cast<std::size_t>(it - stamps_.begin());
}

const std::vector<SimTime>* ExtendedVersionVector::stamps_of(
    NodeId writer) const {
  const std::size_t i = lower_bound(writer);
  return i < stamps_.size() && stamps_[i].first == writer
             ? &stamps_[i].second
             : nullptr;
}

template <typename Visit>
void ExtendedVersionVector::merge_walk(const ExtendedVersionVector& a,
                                       const ExtendedVersionVector& b,
                                       Visit&& visit) {
  auto ia = a.stamps_.begin();
  auto ib = b.stamps_.begin();
  while (ia != a.stamps_.end() || ib != b.stamps_.end()) {
    if (ib == b.stamps_.end() ||
        (ia != a.stamps_.end() && ia->first < ib->first)) {
      visit(&ia->second, nullptr);
      ++ia;
    } else if (ia == a.stamps_.end() || ib->first < ia->first) {
      visit(nullptr, &ib->second);
      ++ib;
    } else {
      visit(&ia->second, &ib->second);
      ++ia;
      ++ib;
    }
  }
}

void ExtendedVersionVector::record_update(NodeId writer, SimTime when,
                                          double meta_after) {
  const std::size_t i = lower_bound(writer);
  if (i == stamps_.size() || stamps_[i].first != writer) {
    stamps_.insert(stamps_.begin() + static_cast<std::ptrdiff_t>(i),
                   WriterStamps{writer, {}});
  }
  auto& list = stamps_[i].second;
  assert((list.empty() || list.back() <= when) &&
         "a writer's stamps must be non-decreasing");
  list.push_back(when);
  meta_ = meta_after;
}

std::uint64_t ExtendedVersionVector::count_of(NodeId writer) const {
  const std::vector<SimTime>* list = stamps_of(writer);
  return list == nullptr ? 0 : list->size();
}

SimTime ExtendedVersionVector::stamp_of(NodeId writer,
                                        std::uint64_t seq) const {
  const std::vector<SimTime>* list = stamps_of(writer);
  if (list == nullptr || seq == 0 || seq > list->size()) {
    return kNever;
  }
  return (*list)[seq - 1];
}

VersionVector ExtendedVersionVector::counts() const {
  VersionVector v;
  // stamps_ is writer-sorted, so each set() appends at the end — linear.
  for (const auto& [w, list] : stamps_) {
    v.set(w, list.size());
  }
  return v;
}

Order ExtendedVersionVector::compare(const ExtendedVersionVector& a,
                                     const ExtendedVersionVector& b) {
  bool a_ahead = false;
  bool b_ahead = false;
  merge_walk(a, b, [&](const std::vector<SimTime>* mine,
                       const std::vector<SimTime>* theirs) {
    const std::size_t n_mine = mine ? mine->size() : 0;
    const std::size_t n_theirs = theirs ? theirs->size() : 0;
    if (n_mine > n_theirs) a_ahead = true;
    if (n_theirs > n_mine) b_ahead = true;
  });
  if (a_ahead && b_ahead) return Order::kConcurrent;
  if (a_ahead) return Order::kAfter;
  if (b_ahead) return Order::kBefore;
  return Order::kEqual;
}

bool ExtendedVersionVector::dominates(
    const ExtendedVersionVector& other) const {
  const Order o = compare(*this, other);
  return o == Order::kAfter || o == Order::kEqual;
}

SimTime ExtendedVersionVector::latest_update_time() const {
  SimTime latest = 0;
  for (const auto& [w, list] : stamps_) {
    if (!list.empty()) latest = std::max(latest, list.back());
  }
  return latest;
}

SimTime ExtendedVersionVector::last_consistent_time(
    const ExtendedVersionVector& reference) const {
  // Find the earliest divergence stamp across all writers; every shared
  // stamp strictly before it is a time at which the two histories agreed.
  SimTime divergence = kNever;
  auto consider_writer = [&](const std::vector<SimTime>* mine,
                             const std::vector<SimTime>* theirs) {
    const std::size_t n_mine = mine ? mine->size() : 0;
    const std::size_t n_theirs = theirs ? theirs->size() : 0;
    const std::size_t common = std::min(n_mine, n_theirs);
    // The shared (writer, seq) prefix has identical stamps by invariant.
    if (n_mine > common) divergence = std::min(divergence, (*mine)[common]);
    if (n_theirs > common)
      divergence = std::min(divergence, (*theirs)[common]);
  };
  merge_walk(*this, reference, consider_writer);
  if (divergence == kNever) {
    // Histories identical: consistent as of the latest update (or t=0).
    return latest_update_time();
  }
  // Largest shared stamp strictly before the divergence point.
  SimTime last = 0;
  for (const auto& [w, list] : stamps_) {
    const std::uint64_t shared =
        std::min<std::uint64_t>(list.size(), reference.count_of(w));
    for (std::uint64_t k = 0; k < shared; ++k) {
      if (list[k] < divergence) last = std::max(last, list[k]);
    }
  }
  return last;
}

TactTriple ExtendedVersionVector::triple_against(
    const ExtendedVersionVector& reference) const {
  TactTriple t;
  t.numerical_error = std::abs(meta_ - reference.meta_);
  // Order error: updates in the reference we miss + updates we have that the
  // reference lacks (§4.4.1's "misses one update and has two extra ones").
  double missing = 0;
  double extra = 0;
  merge_walk(*this, reference, [&](const std::vector<SimTime>* mine_list,
                                   const std::vector<SimTime>* theirs_list) {
    const std::size_t mine = mine_list ? mine_list->size() : 0;
    const std::size_t theirs = theirs_list ? theirs_list->size() : 0;
    if (theirs > mine) missing += static_cast<double>(theirs - mine);
    if (mine > theirs) extra += static_cast<double>(mine - theirs);
  });
  t.order_error = missing + extra;
  const SimTime ref_latest = reference.latest_update_time();
  const SimTime consistent_at = last_consistent_time(reference);
  t.staleness_sec =
      ref_latest > consistent_at ? to_sec(ref_latest - consistent_at) : 0.0;
  return t;
}

void ExtendedVersionVector::merge(const ExtendedVersionVector& other) {
  const bool other_newer =
      other.latest_update_time() > latest_update_time();
  // Walk both writer-sorted spines; writers known only to `other` are
  // batch-appended and restored to sorted order once at the end.
  const std::size_t original = stamps_.size();
  std::size_t i = 0;
  for (const auto& [w, theirs] : other.stamps_) {
    while (i < original && stamps_[i].first < w) ++i;
    if (i < original && stamps_[i].first == w) {
      auto& mine = stamps_[i].second;
      if (theirs.size() > mine.size()) {
        // Prefix compatibility: shared (writer, seq) stamps must agree.
        for (std::size_t k = 0; k < mine.size(); ++k) {
          assert(mine[k] == theirs[k] && "divergent stamps for same update");
        }
        mine.assign(theirs.begin(), theirs.end());
      }
    } else {
      stamps_.emplace_back(w, theirs);
    }
  }
  if (stamps_.size() > original) {
    std::inplace_merge(stamps_.begin(),
                       stamps_.begin() + static_cast<std::ptrdiff_t>(original),
                       stamps_.end(),
                       [](const WriterStamps& a, const WriterStamps& b) {
                         return a.first < b.first;
                       });
  }
  if (other_newer) meta_ = other.meta_;
}

std::vector<std::pair<NodeId, std::uint64_t>>
ExtendedVersionVector::missing_from(
    const ExtendedVersionVector& other) const {
  std::vector<std::pair<NodeId, std::uint64_t>> out;
  for (const auto& [w, theirs] : other.stamps_) {
    const std::uint64_t mine = count_of(w);
    for (std::uint64_t seq = mine + 1; seq <= theirs.size(); ++seq) {
      out.emplace_back(w, seq);
    }
  }
  return out;
}

std::uint32_t ExtendedVersionVector::wire_bytes() const {
  // writer id (4) + count (4) per entry, 8 bytes per stamp, meta (8),
  // triple (24), header (16).
  std::uint64_t bytes = 16 + 8 + 24;
  for (const auto& [w, list] : stamps_) {
    bytes += 8 + 8 * list.size();
  }
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(bytes, UINT32_MAX));
}

std::uint64_t ExtendedVersionVector::total_updates() const {
  std::uint64_t t = 0;
  for (const auto& [w, list] : stamps_) t += list.size();
  return t;
}

std::string ExtendedVersionVector::to_string() const {
  std::string out = "<";
  bool first = true;
  for (const auto& [w, list] : stamps_) {
    if (!first) out += ' ';
    first = false;
    out += node_name(w);
    out += ':';
    out += std::to_string(list.size());
    out += '(';
    for (std::size_t k = 0; k < list.size(); ++k) {
      if (k) out += ',';
      out += format_time(list[k]);
    }
    out += ')';
  }
  char meta_buf[48];
  std::snprintf(meta_buf, sizeof(meta_buf), " [%.3f] ", meta_);
  out += meta_buf;
  out += triple_.to_string();
  out += '>';
  return out;
}

}  // namespace idea::vv
