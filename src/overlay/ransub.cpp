#include "overlay/ransub.hpp"

#include <algorithm>
#include <cassert>

namespace idea::overlay {

namespace {

/// Fan-out of the agents' tree.
constexpr std::uint32_t kArity = 4;
/// How long an internal node waits for its children's collect samples
/// before proceeding without the stragglers.  A crashed child must not
/// stall the wave (and with it the whole overlay).
constexpr SimDuration kCollectDeadline = sec(2);

struct CollectPayload {
  std::uint64_t epoch;
  std::vector<TempAd> ads;
  double weight;
};

struct DistributePayload {
  std::uint64_t epoch;
  std::vector<TempAd> subset;
};

struct EpochPayload {
  std::uint64_t epoch;
};

std::uint32_t ads_wire_bytes(std::size_t n) {
  return static_cast<std::uint32_t>(24 + n * 24);
}

}  // namespace

const net::MsgType RanSubAgent::kCollectType =
    net::MsgType::intern("ransub.collect");
const net::MsgType RanSubAgent::kDistributeType =
    net::MsgType::intern("ransub.distribute");
const net::MsgType RanSubAgent::kEpochType =
    net::MsgType::intern("ransub.epoch");

std::vector<NodeId> KaryTree::children(NodeId n) const {
  std::vector<NodeId> out;
  for (std::uint32_t c = 1; c <= arity; ++c) {
    const std::uint64_t child =
        static_cast<std::uint64_t>(n) * arity + c;
    if (child < nodes) out.push_back(static_cast<NodeId>(child));
  }
  return out;
}

RanSubAgent::RanSubAgent(
    NodeId self, FileId file, net::Transport& transport,
    RanSubParams params,
    std::function<std::vector<TempAd>()> supply_ads,
    std::function<void(const std::vector<TempAd>&)> deliver,
    std::uint64_t seed)
    : self_(self), file_(file), transport_(transport), params_(params),
      tree_{kArity, params.nodes}, supply_ads_(std::move(supply_ads)),
      deliver_(std::move(deliver)), rng_(seed) {
  assert(params_.nodes > 0 && self_ < params_.nodes);
}

RanSubAgent::~RanSubAgent() {
  if (timer_handle_ != 0) transport_.cancel_call(timer_handle_);
  if (deadline_handle_ != 0) transport_.cancel_call(deadline_handle_);
}

void RanSubAgent::start() {
  if (self_ != 0) return;
  timer_handle_ =
      transport_.call_every(params_.epoch, [this] { begin_epoch(); });
}

void RanSubAgent::begin_epoch() {
  ++current_epoch_;
  pending_children_.clear();
  collect_done_ = false;
  // Announce the epoch down the tree; leaves respond with collect samples.
  for (NodeId c : tree_.children(self_)) {
    net::Message m;
    m.from = self_;
    m.file = file_;
    m.to = c;
    m.type = kEpochType;
    m.payload = EpochPayload{current_epoch_};
    m.wire_bytes = 16;
    transport_.send(std::move(m));
  }
  if (tree_.children(self_).empty()) {
    // Degenerate single-node tree: deliver own sample immediately.
    collect_done_ = true;
    deliver_(own_sample().ads);
    ++epochs_;
  } else {
    arm_collect_deadline();
  }
}

void RanSubAgent::on_message(const net::Message& msg) {
  if (msg.type == kEpochType) {
    on_epoch_marker(msg);
  } else if (msg.type == kCollectType) {
    on_collect(msg);
  } else if (msg.type == kDistributeType) {
    on_distribute(msg);
  }
}

void RanSubAgent::on_epoch_marker(const net::Message& msg) {
  const auto& p = msg.payload.as<EpochPayload>();
  current_epoch_ = p.epoch;
  pending_children_.clear();
  collect_done_ = false;
  const auto kids = tree_.children(self_);
  for (NodeId c : kids) {
    net::Message m;
    m.from = self_;
    m.file = file_;
    m.to = c;
    m.type = kEpochType;
    m.payload = EpochPayload{current_epoch_};
    m.wire_bytes = 16;
    transport_.send(std::move(m));
  }
  if (kids.empty()) {
    // Leaf: start the collect wave.
    collect_done_ = true;
    Sample s = own_sample();
    net::Message m;
    m.from = self_;
    m.file = file_;
    m.to = tree_.parent(self_);
    m.type = kCollectType;
    m.payload = CollectPayload{current_epoch_, s.ads, s.weight};
    m.wire_bytes = ads_wire_bytes(s.ads.size());
    transport_.send(std::move(m));
  } else {
    arm_collect_deadline();
  }
}

void RanSubAgent::on_collect(const net::Message& msg) {
  const auto& p = msg.payload.as<CollectPayload>();
  if (p.epoch != current_epoch_) return;  // stale wave
  pending_children_[msg.from] = Sample{p.ads, p.weight};
  try_finish_collect();
}

void RanSubAgent::arm_collect_deadline() {
  if (deadline_handle_ != 0) transport_.cancel_call(deadline_handle_);
  const std::uint64_t epoch = current_epoch_;
  deadline_handle_ = transport_.call_after(
      kCollectDeadline, [this, epoch] {
        deadline_handle_ = 0;
        if (epoch != current_epoch_ || collect_done_) return;
        // Stragglers (possibly crashed children) are left behind; the wave
        // must keep moving.
        finish_collect();
      });
}

void RanSubAgent::try_finish_collect() {
  const auto kids = tree_.children(self_);
  if (pending_children_.size() < kids.size()) return;
  finish_collect();
}

void RanSubAgent::finish_collect() {
  if (collect_done_) return;
  collect_done_ = true;
  if (deadline_handle_ != 0) {
    transport_.cancel_call(deadline_handle_);
    deadline_handle_ = 0;
  }
  const auto kids = tree_.children(self_);
  std::vector<Sample> parts;
  parts.reserve(kids.size() + 1);
  parts.push_back(own_sample());
  for (NodeId c : kids) {
    auto it = pending_children_.find(c);
    if (it != pending_children_.end()) parts.push_back(it->second);
  }
  Sample merged = merge_samples(std::move(parts));
  pending_children_.clear();

  if (self_ == 0) {
    // Root: distribute wave.  The root's own delivery sees the global
    // sample too.
    deliver_(merged.ads);
    ++epochs_;
    send_distribute(merged.ads);
  } else {
    net::Message m;
    m.from = self_;
    m.file = file_;
    m.to = tree_.parent(self_);
    m.type = kCollectType;
    m.payload = CollectPayload{current_epoch_, merged.ads, merged.weight};
    m.wire_bytes = ads_wire_bytes(merged.ads.size());
    transport_.send(std::move(m));
  }
}

void RanSubAgent::on_distribute(const net::Message& msg) {
  const auto& p = msg.payload.as<DistributePayload>();
  if (p.epoch != current_epoch_) return;
  deliver_(p.subset);
  ++epochs_;
  send_distribute(p.subset);
}

void RanSubAgent::send_distribute(const std::vector<TempAd>& subset) {
  for (NodeId c : tree_.children(self_)) {
    // Each child receives an independently resampled subset; with small
    // samples this just forwards, with large ones it thins uniformly.
    std::vector<TempAd> forward = subset;
    if (forward.size() > params_.sample_size) {
      rng_.shuffle(forward);
      forward.resize(params_.sample_size);
    }
    net::Message m;
    m.from = self_;
    m.file = file_;
    m.to = c;
    m.type = kDistributeType;
    m.payload = DistributePayload{current_epoch_, std::move(forward)};
    m.wire_bytes = ads_wire_bytes(subset.size());
    transport_.send(std::move(m));
  }
}

RanSubAgent::Sample RanSubAgent::own_sample() {
  Sample s;
  s.ads = supply_ads_();
  s.weight = 1.0;
  if (s.ads.size() > params_.sample_size) {
    rng_.shuffle(s.ads);
    s.ads.resize(params_.sample_size);
  }
  return s;
}

RanSubAgent::Sample RanSubAgent::merge_samples(std::vector<Sample> parts) {
  Sample out;
  for (const Sample& p : parts) out.weight += p.weight;

  // Hot ads must survive merging regardless of sampling luck — the overlay's
  // job is precisely to surface them — so they are merged first, then the
  // remaining slots are filled by weighted uniform draws.
  std::vector<TempAd> hot;
  std::vector<std::pair<double, TempAd>> cold;  // (part weight, ad)
  for (const Sample& p : parts) {
    const double w =
        p.ads.empty() ? 0.0
                      : p.weight / static_cast<double>(p.ads.size());
    for (const TempAd& ad : p.ads) {
      if (ad.temperature > 0.0) {
        hot.push_back(ad);
      } else {
        cold.emplace_back(w, ad);
      }
    }
  }
  // Deduplicate hot ads by (node, file), keeping the freshest stamp.
  std::sort(hot.begin(), hot.end(), [](const TempAd& a, const TempAd& b) {
    if (a.node != b.node) return a.node < b.node;
    if (a.file != b.file) return a.file < b.file;
    return a.stamped_at > b.stamped_at;
  });
  hot.erase(std::unique(hot.begin(), hot.end(),
                        [](const TempAd& a, const TempAd& b) {
                          return a.node == b.node && a.file == b.file;
                        }),
            hot.end());

  out.ads = std::move(hot);
  // Fill remaining slots with weighted draws from the cold pool.
  double total_w = 0.0;
  for (const auto& [w, ad] : cold) total_w += w;
  while (out.ads.size() < params_.sample_size && !cold.empty() &&
         total_w > 0.0) {
    double r = rng_.uniform01() * total_w;
    std::size_t pick = 0;
    for (; pick + 1 < cold.size(); ++pick) {
      r -= cold[pick].first;
      if (r <= 0.0) break;
    }
    total_w -= cold[pick].first;
    out.ads.push_back(cold[pick].second);
    cold.erase(cold.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  if (out.ads.size() > params_.sample_size) {
    rng_.shuffle(out.ads);
    out.ads.resize(params_.sample_size);
  }
  return out;
}

}  // namespace idea::overlay
