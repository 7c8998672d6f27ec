#pragma once
/// \file detector.hpp
/// \brief The inconsistency detection framework (IDF, [14,15]) — IDEA's
///        detection module (§4.3).
///
/// Exposes the paper's `detect(update)` API: a detection round exchanges
/// extended version vectors with the current top layer and reports "success"
/// (no conflict) or "fail" (conflict) together with the data needed to
/// quantify the inconsistency (the gathered EVVs and the reference state).
///
/// In the background, the detector periodically gossips its EVV through the
/// bottom layer (TTL-bounded, §4.4.2).  Peers that discover a conflict with
/// the origin report back directly; the origin surfaces a discrepancy event
/// when the bottom layer's view contradicts the last top-layer result —
/// the trigger for IDEA's rollback path.

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/dispatcher.hpp"
#include "net/transport.hpp"
#include "overlay/gossip.hpp"
#include "replica/store.hpp"
#include "util/rng.hpp"
#include "vv/extended_vv.hpp"

namespace idea::detect {

/// Result of one detection round.
struct DetectionResult {
  bool conflict = false;  ///< The paper's "fail" (true) vs "success".
  NodeId reference = kNoNode;  ///< Replica chosen as reference state.
  vv::ExtendedVersionVector reference_evv;
  vv::TactTriple triple;  ///< This node's errors vs the reference.
  /// EVVs gathered from the top layer (peer id -> EVV), self included.
  std::vector<std::pair<NodeId, vv::ExtendedVersionVector>> gathered;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  std::size_t peers_probed = 0;
  std::size_t peers_replied = 0;
};

/// A bottom-layer report that contradicts (or confirms) the top layer.
struct ScanReport {
  NodeId reporter = kNoNode;
  vv::ExtendedVersionVector reporter_evv;
  SimTime received_at = 0;
};

/// The bottom-layer scan always runs once started (§4.4.2).
struct DetectorParams {
  SimDuration probe_timeout = msec(1500);  ///< Give up on missing replies.
  SimDuration scan_period = sec(10);       ///< Bottom-layer gossip period.
};

/// Chooses the reference consistent state among gathered replicas: the
/// maximal EVVs (not dominated by any other) are candidates; among those the
/// highest node id wins — the rule the paper uses in §4.4.1 and §6.
NodeId choose_reference(
    const std::vector<std::pair<NodeId, vv::ExtendedVersionVector>>& gathered);

/// Same rule over per-writer counts, one (node, counts) entry per replica.
/// Detection rounds compare every pair, so extracting each EVV's counts
/// once instead of per comparison keeps rounds O(k^2) compares without
/// O(k^2) vector rebuilds; a sharded replica group runs it over the counts
/// its peers reported in anti-entropy exchanges.
NodeId choose_reference_by_counts(
    const std::vector<std::pair<NodeId, vv::VersionVector>>& counts);

class InconsistencyDetector final : public net::MessageHandler {
 public:
  using DetectCallback = std::function<void(const DetectionResult&)>;
  using ReportCallback = std::function<void(const ScanReport&)>;

  /// `top_layer` yields the node's current view of the top layer for the
  /// file (self may or may not be included; the detector handles both).
  InconsistencyDetector(NodeId self, FileId file, net::Transport& transport,
                        replica::ReplicaStore& store,
                        overlay::GossipAgent& gossip,
                        std::function<std::vector<NodeId>()> top_layer,
                        DetectorParams params, std::uint64_t seed);
  ~InconsistencyDetector() override;

  InconsistencyDetector(const InconsistencyDetector&) = delete;
  InconsistencyDetector& operator=(const InconsistencyDetector&) = delete;

  /// The paper's detect(update) API.  Asynchronous: probes the top layer and
  /// invokes `cb` exactly once with the outcome.  Multiple concurrent rounds
  /// are allowed (distinguished by round id).
  void detect(DetectCallback cb);

  /// Start/stop the periodic bottom-layer scan.
  void start_background_scan();
  void stop_background_scan();

  /// Fires when a bottom-layer peer reports a conflict with our state.
  void set_report_callback(ReportCallback cb) { on_report_ = std::move(cb); }

  void on_message(const net::Message& msg) override;

  /// Handle a gossip envelope routed to this detector by the gossip agent.
  void on_gossip(const overlay::GossipEnvelope& env);

  static const net::MsgType kProbeType;      ///< "detect.probe"
  static const net::MsgType kReplyType;      ///< "detect.reply"
  static const net::MsgType kReportType;     ///< "detect.report"
  static const net::MsgType kScanInnerType;  ///< "detect.scan"

  [[nodiscard]] std::uint64_t rounds_started() const { return next_round_; }
  [[nodiscard]] std::uint64_t scans_started() const { return scans_; }

 private:
  struct PendingRound {
    DetectCallback cb;
    std::vector<std::pair<NodeId, vv::ExtendedVersionVector>> gathered;
    std::size_t expected = 0;
    SimTime started_at = 0;
    std::uint64_t timeout_handle = 0;
  };

  void finish_round(std::uint64_t round_id);
  void handle_probe(const net::Message& msg);
  void handle_reply(const net::Message& msg);
  void handle_report(const net::Message& msg);
  void run_scan();

  NodeId self_;
  FileId file_;
  net::Transport& transport_;
  replica::ReplicaStore& store_;
  overlay::GossipAgent& gossip_;
  std::function<std::vector<NodeId>()> top_layer_;
  DetectorParams params_;
  Rng rng_;

  std::uint64_t next_round_ = 0;
  std::uint64_t scans_ = 0;
  std::unordered_map<std::uint64_t, PendingRound> pending_;
  std::uint64_t scan_timer_ = 0;
  ReportCallback on_report_;
};

}  // namespace idea::detect
