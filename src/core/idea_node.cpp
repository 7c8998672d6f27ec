#include "core/idea_node.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace idea::core {

IdeaNode::IdeaNode(NodeId self, FileId file, net::Transport& transport,
                   IdeaConfig config, std::uint64_t seed,
                   bool attach_transport)
    : self_(self), file_(file), transport_(transport), config_(config),
      store_(self, file), temperature_(config.temperature),
      two_layer_(self, config.two_layer),
      gossip_(self, transport, config.gossip,
              [this](const overlay::GossipEnvelope& env) {
                detector_.on_gossip(env);
              },
              mix64(seed ^ 0x60551FULL ^ self)),
      ransub_(self, file, transport, config.ransub,
              [this] {
                std::vector<overlay::TempAd> ads;
                const SimTime now = transport_.now();
                ads.push_back(overlay::TempAd{
                    self_, file_, temperature_.temperature(file_, now), now});
                return ads;
              },
              [this](const std::vector<overlay::TempAd>& ads) {
                two_layer_.ingest(ads, transport_.now());
              },
              mix64(seed ^ 0x4A5ULL ^ self)),
      detector_(self, file, transport, store_, gossip_,
                [this] { return current_top_layer(); }, config.detector,
                mix64(seed ^ 0xDE7EC7ULL ^ self)),
      resolution_(self, file, transport, store_,
                  [this] { return current_top_layer(); }, config.resolution,
                  mix64(seed ^ 0x2E50ULL ^ self)),
      controller_(config.controller,
                  [this] { demand_active_resolution(); },
                  [this](SimDuration period) {
                    arm_background_timer(period);
                  }) {
  dispatcher_.route("ransub.", &ransub_);
  dispatcher_.route("gossip.", &gossip_);
  dispatcher_.route("detect.", &detector_);
  dispatcher_.route("resolve.", &resolution_);
  attached_ = attach_transport;
  if (attached_) transport_.attach(self_, &dispatcher_);

  detector_.set_report_callback(
      [this](const detect::ScanReport& r) { on_scan_report(r); });
  resolution_.set_round_callback([this](const RoundStats& s) {
    controller_.observe_round_cost(
        static_cast<double>(s.updates_shipped) * 256.0 +
        static_cast<double>(s.participants) * 512.0);
    if (on_round_user_) on_round_user_(s);
  });
}

IdeaNode::~IdeaNode() {
  if (detection_timer_ != 0) transport_.cancel_call(detection_timer_);
  if (background_timer_ != 0) transport_.cancel_call(background_timer_);
  if (attached_) transport_.detach(self_);
}

void IdeaNode::start() {
  ransub_.start();  // no-op except on the tree root
  detector_.start_background_scan();
  if (config_.detection_period > 0) {
    detection_timer_ = transport_.call_every(
        config_.detection_period, [this] { probe(); });
  }
  if (config_.background_period > 0) {
    arm_background_timer(config_.background_period);
  }
}

bool IdeaNode::write(std::string content, double meta_delta) {
  if (resolution_.busy()) {
    // §4.4.1: updates are blocked while a resolution is in flight, to
    // prevent writes on top of a state being replaced.
    ++blocked_writes_;
    return false;
  }
  const SimTime local_now = transport_.local_time(self_);
  store_.apply_local(local_now, std::move(content), meta_delta);
  note_replica_activity();
  probe();  // the paper's write trigger
  return true;
}

std::vector<replica::Update> IdeaNode::read(bool trigger_detection) {
  if (trigger_detection) probe();
  return store_.ordered_contents();
}

std::shared_ptr<const std::vector<replica::Update>> IdeaNode::read_view(
    bool trigger_detection) {
  if (trigger_detection) probe();
  return store_.contents_snapshot();
}

void IdeaNode::note_replica_activity() {
  const SimTime now = transport_.now();
  temperature_.record_update(file_, now);
  two_layer_.note_self(file_, temperature_.temperature(file_, now), now);
}

void IdeaNode::set_consistency_metric(double max_numerical, double max_order,
                                      double max_staleness_sec) {
  config_.maxima = vv::TripleMaxima{max_numerical, max_order,
                                    max_staleness_sec};
  assert(config_.maxima.valid());
}

void IdeaNode::set_weight(double w_numerical, double w_order,
                          double w_staleness) {
  config_.weights = vv::TripleWeights{w_numerical, w_order, w_staleness};
  assert(config_.weights.valid());
}

void IdeaNode::set_resolution(int policy) {
  assert(policy >= 1 && policy <= 3);
  config_.resolution.policy.policy = static_cast<ResolutionPolicy>(policy);
}

void IdeaNode::set_hint(double hint) { controller_.set_hint(hint); }

bool IdeaNode::demand_active_resolution() {
  return resolution_.start_active();
}

void IdeaNode::set_background_freq(double hz) {
  if (hz <= 0.0) {
    arm_background_timer(0);
  } else {
    arm_background_timer(sec_f(1.0 / hz));
  }
}

void IdeaNode::user_unsatisfied() {
  controller_.user_unsatisfied(transport_.now());
}

void IdeaNode::user_adjust_weights(double w_numerical, double w_order,
                                   double w_staleness) {
  set_weight(w_numerical, w_order, w_staleness);
}

std::vector<NodeId> IdeaNode::top_layer() const {
  auto tl = two_layer_.top_layer(file_, transport_.now());
  return tl;
}

void IdeaNode::probe(detect::InconsistencyDetector::DetectCallback cb) {
  detector_.detect([this, cb = std::move(cb)](
                       const detect::DetectionResult& result) {
    on_detection(result);
    if (cb) cb(result);
  });
}

void IdeaNode::on_detection(const detect::DetectionResult& result) {
  LevelSample sample;
  sample.level = consistency_level(result.triple, config_.weights,
                                   config_.maxima);
  sample.triple = result.triple;
  sample.conflict = result.conflict;
  sample.reference = result.reference;
  sample.at = transport_.now();
  level_ = sample;
  controller_.observe_level(sample.level, sample.at, sample.conflict);
  if (on_level_) on_level_(sample);
}

void IdeaNode::on_scan_report(const detect::ScanReport& report) {
  // Quantify our state against the reporter's: the bottom layer's verdict.
  const vv::TactTriple triple =
      store_.evv().triple_against(report.reporter_evv);
  const double bottom_level =
      consistency_level(triple, config_.weights, config_.maxima);
  const double top_level = level_.level;
  if (std::abs(bottom_level - top_level) <= config_.discrepancy_threshold) {
    return;  // §4.4.2: sufficiently close — keep the top-layer result.
  }
  DiscrepancyAlert alert;
  alert.top_layer_level = top_level;
  alert.bottom_layer_level = bottom_level;
  alert.reporter = report.reporter;
  alert.at = transport_.now();

  const double acceptable = controller_.hint();
  if (bottom_level < acceptable) {
    if (config_.auto_rollback) {
      const SimTime cutoff =
          store_.evv().last_consistent_time(report.reporter_evv);
      const std::size_t dropped = store_.rollback_to(cutoff);
      alert.rolled_back = dropped > 0;
      IDEA_LOG(kInfo) << node_name(self_) << " rolled back " << dropped
                      << " updates after bottom-layer discrepancy";
    }
    demand_active_resolution();
  }
  if (on_discrepancy_) on_discrepancy_(alert);
}

void IdeaNode::arm_background_timer(SimDuration period) {
  if (background_timer_ != 0) {
    transport_.cancel_call(background_timer_);
    background_timer_ = 0;
  }
  background_period_ = period;
  if (period > 0) {
    background_timer_ =
        transport_.call_every(period, [this] { background_tick(); });
  }
}

void IdeaNode::background_tick() {
  // "One replica (chosen by IDEA) in the top layer acts as the initiator"
  // (§4.5.2): the lowest-id top-layer member is the designated initiator;
  // everyone runs the timer, only the designee fires.
  const std::vector<NodeId> tl = current_top_layer();
  if (tl.empty()) return;
  if (tl.front() != self_) return;
  resolution_.start_background();
}

std::vector<NodeId> IdeaNode::current_top_layer() {
  const SimTime now = transport_.now();
  // Keep our own advertisement fresh before consulting the view.
  two_layer_.note_self(file_, temperature_.temperature(file_, now), now);
  return two_layer_.top_layer(file_, now);
}

}  // namespace idea::core
