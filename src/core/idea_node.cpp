#include "core/idea_node.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace idea::core {

IdeaNode::Stack::Stack(IdeaNode& node, net::Transport& transport,
                       IdeaConfig config, std::uint64_t seed)
    : transport(transport), config(config),
      temperature(config.temperature),
      two_layer(node.self_, config.two_layer),
      gossip(node.self_, transport, config.gossip,
             [this](const overlay::GossipEnvelope& env) {
               detector.on_gossip(env);
             },
             mix64(seed ^ 0x60551FULL ^ node.self_)),
      ransub(node.self_, node.file_, transport, config.ransub,
             [this, &node] {
               std::vector<overlay::TempAd> ads;
               const SimTime now = this->transport.now();
               ads.push_back(overlay::TempAd{
                   node.self_, node.file_,
                   temperature.temperature(node.file_, now), now});
               return ads;
             },
             [this](const std::vector<overlay::TempAd>& ads) {
               two_layer.ingest(ads, this->transport.now());
             },
             mix64(seed ^ 0x4A5ULL ^ node.self_)),
      detector(node.self_, node.file_, transport, node.store_, gossip,
               [&node] { return node.current_top_layer(); },
               config.detector, mix64(seed ^ 0xDE7EC7ULL ^ node.self_)),
      resolution(node.self_, node.file_, transport, node.store_,
                 [&node] { return node.current_top_layer(); },
                 config.resolution, mix64(seed ^ 0x2E50ULL ^ node.self_)),
      controller(config.controller,
                 [&node] { node.demand_active_resolution(); },
                 [&node](SimDuration period) {
                   node.arm_background_timer(period);
                 }) {}

IdeaNode::IdeaNode(NodeId self, FileId file, net::Transport& transport,
                   IdeaConfig config, std::uint64_t seed,
                   bool attach_transport)
    : self_(self), file_(file), store_(self, file),
      stack_(std::make_unique<Stack>(*this, transport, std::move(config),
                                     seed)) {
  Stack& s = *stack_;
  s.dispatcher.route("ransub.", &s.ransub);
  s.dispatcher.route("gossip.", &s.gossip);
  s.dispatcher.route("detect.", &s.detector);
  s.dispatcher.route("resolve.", &s.resolution);
  s.attached = attach_transport;
  if (s.attached) transport.attach(self_, &s.dispatcher);

  s.detector.set_report_callback(
      [this](const detect::ScanReport& r) { on_scan_report(r); });
  s.resolution.set_round_callback([this](const RoundStats& r) {
    Stack& st = *stack_;
    st.controller.observe_round_cost(
        static_cast<double>(r.updates_shipped) * 256.0 +
        static_cast<double>(r.participants) * 512.0);
    if (st.on_round_user) st.on_round_user(r);
  });
}

IdeaNode::IdeaNode(NodeId self, FileId file)
    : self_(self), file_(file), store_(self, file) {}

IdeaNode::~IdeaNode() {
  if (stack_ == nullptr) return;
  net::Transport& transport = stack_->transport;
  if (stack_->detection_timer != 0) {
    transport.cancel_call(stack_->detection_timer);
  }
  if (stack_->background_timer != 0) {
    transport.cancel_call(stack_->background_timer);
  }
  if (stack_->attached) transport.detach(self_);
}

void IdeaNode::start() {
  Stack& s = stack();
  s.ransub.start();  // no-op except on the tree root
  s.detector.start_background_scan();
  if (s.config.detection_period > 0) {
    s.detection_timer = s.transport.call_every(s.config.detection_period,
                                               [this] { probe(); });
  }
  if (s.config.background_period > 0) {
    arm_background_timer(s.config.background_period);
  }
}

bool IdeaNode::write(std::string content, double meta_delta) {
  Stack& s = stack();
  if (s.resolution.busy()) {
    // §4.4.1: updates are blocked while a resolution is in flight, to
    // prevent writes on top of a state being replaced.
    ++s.blocked_writes;
    return false;
  }
  const SimTime local_now = s.transport.local_time(self_);
  store_.apply_local(local_now, std::move(content), meta_delta);
  note_replica_activity();
  probe();  // the paper's write trigger
  return true;
}

std::vector<replica::Update> IdeaNode::read(bool trigger_detection) {
  if (trigger_detection) probe();
  return store_.ordered_contents();
}

void IdeaNode::note_replica_activity() {
  Stack& s = stack();
  const SimTime now = s.transport.now();
  s.temperature.record_update(file_, now);
  s.two_layer.note_self(file_, s.temperature.temperature(file_, now), now);
}

void IdeaNode::set_consistency_metric(double max_numerical, double max_order,
                                      double max_staleness_sec) {
  IdeaConfig& config = stack().config;
  config.maxima = vv::TripleMaxima{max_numerical, max_order,
                                   max_staleness_sec};
  assert(config.maxima.valid());
}

void IdeaNode::set_weight(double w_numerical, double w_order,
                          double w_staleness) {
  IdeaConfig& config = stack().config;
  config.weights = vv::TripleWeights{w_numerical, w_order, w_staleness};
  assert(config.weights.valid());
}

void IdeaNode::set_resolution(int policy) {
  assert(policy >= 1 && policy <= 3);
  stack().config.resolution.policy.policy =
      static_cast<ResolutionPolicy>(policy);
}

void IdeaNode::set_hint(double hint) { stack().controller.set_hint(hint); }

bool IdeaNode::demand_active_resolution() {
  return stack().resolution.start_active();
}

void IdeaNode::set_background_freq(double hz) {
  if (hz <= 0.0) {
    arm_background_timer(0);
  } else {
    arm_background_timer(sec_f(1.0 / hz));
  }
}

void IdeaNode::user_unsatisfied() {
  Stack& s = stack();
  s.controller.user_unsatisfied(s.transport.now());
}

void IdeaNode::user_adjust_weights(double w_numerical, double w_order,
                                   double w_staleness) {
  set_weight(w_numerical, w_order, w_staleness);
}

std::vector<NodeId> IdeaNode::top_layer() const {
  const Stack& s = stack();
  return s.two_layer.top_layer(file_, s.transport.now());
}

void IdeaNode::probe(detect::InconsistencyDetector::DetectCallback cb) {
  stack().detector.detect([this, cb = std::move(cb)](
                              const detect::DetectionResult& result) {
    on_detection(result);
    if (cb) cb(result);
  });
}

void IdeaNode::on_detection(const detect::DetectionResult& result) {
  Stack& s = *stack_;
  LevelSample sample;
  sample.level = consistency_level(result.triple, s.config.weights,
                                   s.config.maxima);
  sample.triple = result.triple;
  sample.conflict = result.conflict;
  sample.reference = result.reference;
  sample.at = s.transport.now();
  s.level = sample;
  s.controller.observe_level(sample.level, sample.at, sample.conflict);
  if (s.on_level) s.on_level(sample);
}

void IdeaNode::on_scan_report(const detect::ScanReport& report) {
  Stack& s = *stack_;
  // Quantify our state against the reporter's: the bottom layer's verdict.
  const vv::TactTriple triple =
      store_.evv().triple_against(report.reporter_evv);
  const double bottom_level =
      consistency_level(triple, s.config.weights, s.config.maxima);
  const double top_level = s.level.level;
  if (std::abs(bottom_level - top_level) <= s.config.discrepancy_threshold) {
    return;  // §4.4.2: sufficiently close — keep the top-layer result.
  }
  DiscrepancyAlert alert;
  alert.top_layer_level = top_level;
  alert.bottom_layer_level = bottom_level;
  alert.reporter = report.reporter;
  alert.at = s.transport.now();

  const double acceptable = s.controller.hint();
  if (bottom_level < acceptable) {
    if (s.config.auto_rollback) {
      const SimTime cutoff =
          store_.evv().last_consistent_time(report.reporter_evv);
      const std::size_t dropped = store_.rollback_to(cutoff);
      alert.rolled_back = dropped > 0;
      IDEA_LOG(kInfo) << node_name(self_) << " rolled back " << dropped
                      << " updates after bottom-layer discrepancy";
    }
    demand_active_resolution();
  }
  if (s.on_discrepancy) s.on_discrepancy(alert);
}

void IdeaNode::arm_background_timer(SimDuration period) {
  Stack& s = stack();
  if (s.background_timer != 0) {
    s.transport.cancel_call(s.background_timer);
    s.background_timer = 0;
  }
  if (period > 0) {
    s.background_timer =
        s.transport.call_every(period, [this] { background_tick(); });
  }
}

void IdeaNode::background_tick() {
  // "One replica (chosen by IDEA) in the top layer acts as the initiator"
  // (§4.5.2): the lowest-id top-layer member is the designated initiator;
  // everyone runs the timer, only the designee fires.
  const std::vector<NodeId> tl = current_top_layer();
  if (tl.empty()) return;
  if (tl.front() != self_) return;
  stack_->resolution.start_background();
}

std::vector<NodeId> IdeaNode::current_top_layer() {
  Stack& s = *stack_;
  const SimTime now = s.transport.now();
  // Keep our own advertisement fresh before consulting the view.
  s.two_layer.note_self(file_, s.temperature.temperature(file_, now), now);
  return s.two_layer.top_layer(file_, now);
}

}  // namespace idea::core
