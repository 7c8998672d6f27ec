#include "detect/detector.hpp"

#include <algorithm>
#include <cassert>
#include <memory>

namespace idea::detect {

namespace {

// Probe/reply/report/scan bodies carry the sender's EVV as a shared
// snapshot (ReplicaStore::evv_snapshot), so sending k probes or answering
// a probe storm between two local mutations refcounts one allocation.
struct ProbePayload {
  std::uint64_t round_id;
  std::shared_ptr<const vv::ExtendedVersionVector> evv;
};

struct ReplyPayload {
  std::uint64_t round_id;
  std::shared_ptr<const vv::ExtendedVersionVector> evv;
};

struct ReportPayload {
  std::shared_ptr<const vv::ExtendedVersionVector> evv;
};

struct ScanPayload {
  std::shared_ptr<const vv::ExtendedVersionVector> evv;
};

}  // namespace

const net::MsgType InconsistencyDetector::kProbeType =
    net::MsgType::intern("detect.probe");
const net::MsgType InconsistencyDetector::kReplyType =
    net::MsgType::intern("detect.reply");
const net::MsgType InconsistencyDetector::kReportType =
    net::MsgType::intern("detect.report");
const net::MsgType InconsistencyDetector::kScanInnerType =
    net::MsgType::intern("detect.scan");

NodeId choose_reference(
    const std::vector<std::pair<NodeId, vv::ExtendedVersionVector>>&
        gathered) {
  std::vector<std::pair<NodeId, vv::VersionVector>> counts;
  counts.reserve(gathered.size());
  for (const auto& [node, evv] : gathered) {
    counts.emplace_back(node, evv.counts());
  }
  return choose_reference_by_counts(counts);
}

NodeId choose_reference_by_counts(
    const std::vector<std::pair<NodeId, vv::VersionVector>>& counts) {
  NodeId best = kNoNode;
  for (const auto& [node, mine] : counts) {
    bool dominated = false;
    for (const auto& [other_node, theirs] : counts) {
      if (other_node == node) continue;
      const vv::Order o = vv::VersionVector::compare(mine, theirs);
      if (o == vv::Order::kBefore) {
        dominated = true;
        break;
      }
      // Among equals, the higher id is canonical; skip the lower one.
      if (o == vv::Order::kEqual && other_node > node) {
        dominated = true;
        break;
      }
    }
    if (!dominated && (best == kNoNode || node > best)) best = node;
  }
  return best;
}

InconsistencyDetector::InconsistencyDetector(
    NodeId self, FileId file, net::Transport& transport,
    replica::ReplicaStore& store, overlay::GossipAgent& gossip,
    std::function<std::vector<NodeId>()> top_layer, DetectorParams params,
    std::uint64_t seed)
    : self_(self), file_(file), transport_(transport), store_(store),
      gossip_(gossip), top_layer_(std::move(top_layer)), params_(params),
      rng_(seed) {}

InconsistencyDetector::~InconsistencyDetector() {
  stop_background_scan();
  for (auto& [id, round] : pending_) {
    if (round.timeout_handle != 0) {
      transport_.cancel_call(round.timeout_handle);
    }
  }
}

void InconsistencyDetector::detect(DetectCallback cb) {
  const std::uint64_t round_id =
      (static_cast<std::uint64_t>(self_) << 40) | ++next_round_;
  PendingRound round;
  round.cb = std::move(cb);
  round.started_at = transport_.now();
  round.gathered.emplace_back(self_, store_.evv());

  std::vector<NodeId> peers = top_layer_();
  peers.erase(std::remove(peers.begin(), peers.end(), self_), peers.end());
  round.expected = peers.size();

  if (peers.empty()) {
    // Alone in the top layer: trivially consistent from our vantage point.
    pending_.emplace(round_id, std::move(round));
    finish_round(round_id);
    return;
  }

  // One shared probe body for the whole top layer; each send refcounts it
  // instead of re-copying the EVV per peer.
  const net::Payload probe = ProbePayload{round_id, store_.evv_snapshot()};
  const std::uint32_t probe_bytes = store_.evv().wire_bytes();
  for (NodeId peer : peers) {
    net::Message m;
    m.from = self_;
    m.to = peer;
    m.file = file_;
    m.type = kProbeType;
    m.payload = probe;
    m.wire_bytes = probe_bytes;
    transport_.send(std::move(m));
  }
  round.timeout_handle = transport_.call_after(
      params_.probe_timeout, [this, round_id] { finish_round(round_id); });
  pending_.emplace(round_id, std::move(round));
}

void InconsistencyDetector::finish_round(std::uint64_t round_id) {
  auto it = pending_.find(round_id);
  if (it == pending_.end()) return;
  PendingRound round = std::move(it->second);
  pending_.erase(it);
  if (round.timeout_handle != 0) {
    transport_.cancel_call(round.timeout_handle);
  }

  DetectionResult result;
  result.started_at = round.started_at;
  result.finished_at = transport_.now();
  result.peers_probed = round.expected;
  result.peers_replied = round.gathered.size() - 1;
  result.gathered = std::move(round.gathered);

  // Extract each gathered EVV's counts once; every pairwise comparison in
  // this round works on the flat vectors.
  std::vector<std::pair<NodeId, vv::VersionVector>> counts;
  counts.reserve(result.gathered.size());
  for (const auto& [node, evv] : result.gathered) {
    counts.emplace_back(node, evv.counts());
  }

  // "fail" iff any pair of gathered EVVs differ (paper: two replicas are
  // inconsistent if their version vectors are different).
  for (std::size_t i = 0; !result.conflict && i < counts.size(); ++i) {
    for (std::size_t j = i + 1; j < counts.size(); ++j) {
      if (vv::VersionVector::compare(counts[i].second, counts[j].second) !=
          vv::Order::kEqual) {
        result.conflict = true;
        break;
      }
    }
  }

  result.reference = choose_reference_by_counts(counts);
  for (const auto& [node, evv] : result.gathered) {
    if (node == result.reference) {
      result.reference_evv = evv;
      break;
    }
  }
  result.triple = store_.evv().triple_against(result.reference_evv);
  store_.set_triple(result.triple);
  round.cb(result);
}

void InconsistencyDetector::on_message(const net::Message& msg) {
  if (msg.type == kProbeType) {
    handle_probe(msg);
  } else if (msg.type == kReplyType) {
    handle_reply(msg);
  } else if (msg.type == kReportType) {
    handle_report(msg);
  }
}

void InconsistencyDetector::handle_probe(const net::Message& msg) {
  const auto& p = msg.payload.as<ProbePayload>();
  net::Message reply;
  reply.from = self_;
  reply.to = msg.from;
  reply.file = file_;
  reply.type = kReplyType;
  reply.payload = ReplyPayload{p.round_id, store_.evv_snapshot()};
  reply.wire_bytes = store_.evv().wire_bytes();
  transport_.send(std::move(reply));
}

void InconsistencyDetector::handle_reply(const net::Message& msg) {
  const auto& p = msg.payload.as<ReplyPayload>();
  auto it = pending_.find(p.round_id);
  if (it == pending_.end()) return;  // late reply after timeout
  it->second.gathered.emplace_back(msg.from, *p.evv);
  if (it->second.gathered.size() >= it->second.expected + 1) {
    finish_round(p.round_id);
  }
}

void InconsistencyDetector::handle_report(const net::Message& msg) {
  const auto& p = msg.payload.as<ReportPayload>();
  if (on_report_) {
    ScanReport report;
    report.reporter = msg.from;
    report.reporter_evv = *p.evv;
    report.received_at = transport_.now();
    on_report_(report);
  }
}

void InconsistencyDetector::start_background_scan() {
  if (scan_timer_ != 0) return;
  scan_timer_ =
      transport_.call_every(params_.scan_period, [this] { run_scan(); });
}

void InconsistencyDetector::stop_background_scan() {
  if (scan_timer_ != 0) {
    transport_.cancel_call(scan_timer_);
    scan_timer_ = 0;
  }
}

void InconsistencyDetector::run_scan() {
  ++scans_;
  gossip_.broadcast(file_, kScanInnerType, ScanPayload{store_.evv_snapshot()},
                    store_.evv().wire_bytes());
}

void InconsistencyDetector::on_gossip(const overlay::GossipEnvelope& env) {
  if (env.inner_type != kScanInnerType) return;
  if (env.origin == self_) return;
  const auto& p = env.inner.as<ScanPayload>();
  // If our history conflicts with (or is ahead of) the origin's, the origin
  // may be unaware of inconsistency — report back directly.
  const vv::Order o =
      vv::ExtendedVersionVector::compare(store_.evv(), *p.evv);
  if (o == vv::Order::kConcurrent || o == vv::Order::kAfter) {
    net::Message m;
    m.from = self_;
    m.to = env.origin;
    m.file = file_;
    m.type = kReportType;
    m.payload = ReportPayload{store_.evv_snapshot()};
    m.wire_bytes = store_.evv().wire_bytes();
    transport_.send(std::move(m));
  }
}

}  // namespace idea::detect
