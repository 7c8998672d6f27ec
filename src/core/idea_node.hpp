#pragma once
/// \file idea_node.hpp
/// \brief One IDEA middleware node: the public API of the library.
///
/// An IdeaNode sits between an application replica and the network.  It owns
/// the node's replica of one shared file and, behind one pointer, the
/// paper's per-node stack: its temperature bookkeeping, its view of the
/// two-layer overlay, gossip and RanSub, the inconsistency detector, the
/// resolution manager and the adaptive controller.  Applications interact
/// through:
///
///  * write()/read()               — the data path;
///  * the Table-1 developer API    — set_consistency_metric, set_weight,
///    set_resolution, set_hint, demand_active_resolution,
///    set_background_freq;
///  * the end-user surface         — user_unsatisfied(), boost/weight
///    adjustment (§5.1);
///  * listeners                    — consistency-level updates, resolution
///    round stats, bottom-layer discrepancy alerts.
///
/// A store-only node (the second constructor) holds the replica and
/// nothing else: a sharded replica group keeps its members in step by
/// pushes and anti-entropy instead (shard/replica_sync.hpp), so its ranks
/// build no stack.  On such a node only id(), file(), store() and an
/// untriggered read() are valid; every other member asserts.

#include <cassert>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/controller.hpp"
#include "core/formula.hpp"
#include "core/resolution.hpp"
#include "detect/detector.hpp"
#include "net/dispatcher.hpp"
#include "net/transport.hpp"
#include "overlay/gossip.hpp"
#include "overlay/ransub.hpp"
#include "overlay/temperature.hpp"
#include "overlay/two_layer.hpp"
#include "replica/store.hpp"

namespace idea::core {

/// Everything configurable about one IDEA node.  The nested structs carry
/// the per-module tunables; the fields here wire the protocol together.
struct IdeaConfig {
  vv::TripleWeights weights;
  vv::TripleMaxima maxima;
  ResolutionConfig resolution;
  detect::DetectorParams detector;
  ControllerConfig controller;
  overlay::TemperatureParams temperature;
  overlay::TwoLayerParams two_layer;
  overlay::RanSubParams ransub;
  overlay::GossipParams gossip;

  /// Period of the proactive top-layer detection rounds that keep the
  /// node's consistency level fresh ("periodically detecting inconsistency
  /// with sufficient frequency behind the scene" — §5.1).
  SimDuration detection_period = sec(1);
  /// Background-resolution period; 0 disables background resolution.
  SimDuration background_period = 0;
  /// Alert threshold for top-vs-bottom layer disagreement (§4.4.2's "78%
  /// vs 80%" closeness test).
  double discrepancy_threshold = 0.05;
  /// If true, a discrepancy whose corrected level is unacceptable triggers
  /// a rollback to the last consistent point before resolving.
  bool auto_rollback = false;
};

/// A consistency-level observation delivered to the application.
struct LevelSample {
  double level = 1.0;
  vv::TactTriple triple;
  bool conflict = false;
  NodeId reference = kNoNode;
  SimTime at = 0;
};

/// Alert raised when the bottom layer contradicts the top-layer estimate.
struct DiscrepancyAlert {
  double top_layer_level = 1.0;
  double bottom_layer_level = 1.0;
  NodeId reporter = kNoNode;
  bool rolled_back = false;
  SimTime at = 0;
};

class IdeaNode {
 public:
  using LevelListener = std::function<void(const LevelSample&)>;
  using RoundListener = std::function<void(const RoundStats&)>;
  using DiscrepancyListener = std::function<void(const DiscrepancyAlert&)>;

  /// `attach_transport` controls whether the node claims the transport
  /// endpoint for its id.  Single-file deployments leave it true; an
  /// IdeaService managing several files per node attaches itself instead
  /// and routes by file id (§4.1: per-file top layers are independent).
  IdeaNode(NodeId self, FileId file, net::Transport& transport,
           IdeaConfig config, std::uint64_t seed,
           bool attach_transport = true);
  /// A store-only node: the replica of `file` at `self`, with no stack,
  /// no transport and no timers.
  IdeaNode(NodeId self, FileId file);
  ~IdeaNode();

  IdeaNode(const IdeaNode&) = delete;
  IdeaNode& operator=(const IdeaNode&) = delete;

  /// Arm the periodic machinery (detection rounds, bottom scans, RanSub
  /// epoch timer on the root, background resolution).
  void start();

  // ------------------------------------------------------------------
  // Data path
  // ------------------------------------------------------------------

  /// Issue a local write.  Returns false (and applies nothing) while a
  /// resolution round blocks updates — the paper's §4.4.1 blocking rule.
  bool write(std::string content, double meta_delta);

  /// Read the replica in canonical order.  A read of a fresh file would
  /// trigger detection in the paper's protocol; pass `trigger_detection`
  /// accordingly.
  [[nodiscard]] std::vector<replica::Update> read(
      bool trigger_detection = false);

  // ------------------------------------------------------------------
  // Table-1 developer API
  // ------------------------------------------------------------------

  /// set_consistency_metric(a, b, c): calibrate the per-metric maxima that
  /// cast the application onto IDEA's metric space.
  void set_consistency_metric(double max_numerical, double max_order,
                              double max_staleness_sec);

  /// set_weight(a, b, c): weights of the three metrics in Formula 1.
  void set_weight(double w_numerical, double w_order, double w_staleness);

  /// set_resolution(r): 1 = invalidate both, 2 = user-ID, 3 = priority.
  void set_resolution(int policy);

  /// set_hint(h): 0 disables hint-based control, 1 tolerates nothing.
  void set_hint(double hint);

  /// demand_active_resolution(): explicit user/application demand.
  /// Returns false if a round is already running locally.
  bool demand_active_resolution();

  /// set_background_freq(f): background resolutions per second (0 stops).
  void set_background_freq(double hz);

  // ------------------------------------------------------------------
  // End-user interaction (§5.1)
  // ------------------------------------------------------------------

  /// The user saw the current level and is not satisfied: resolve now and
  /// learn a higher acceptable level (L1 + delta).
  void user_unsatisfied();

  /// The user re-weights the metrics without changing the overall target.
  void user_adjust_weights(double w_numerical, double w_order,
                           double w_staleness);

  // ------------------------------------------------------------------
  // Introspection
  // ------------------------------------------------------------------

  [[nodiscard]] double current_level() const { return stack().level.level; }
  [[nodiscard]] const LevelSample& last_sample() const {
    return stack().level;
  }
  [[nodiscard]] NodeId id() const { return self_; }
  [[nodiscard]] FileId file() const { return file_; }
  [[nodiscard]] const replica::ReplicaStore& store() const { return store_; }
  [[nodiscard]] replica::ReplicaStore& store() { return store_; }
  [[nodiscard]] AdaptiveController& controller() {
    return stack().controller;
  }
  [[nodiscard]] ResolutionManager& resolution() {
    return stack().resolution;
  }
  [[nodiscard]] detect::InconsistencyDetector& detector() {
    return stack().detector;
  }
  [[nodiscard]] const IdeaConfig& config() const { return stack().config; }
  [[nodiscard]] std::vector<NodeId> top_layer() const;
  [[nodiscard]] std::uint64_t blocked_writes() const {
    return stack().blocked_writes;
  }

  void set_level_listener(LevelListener cb) {
    stack().on_level = std::move(cb);
  }
  void set_round_listener(RoundListener cb) {
    stack().on_round_user = std::move(cb);
  }
  void set_discrepancy_listener(DiscrepancyListener cb) {
    stack().on_discrepancy = std::move(cb);
  }

  /// Run one detection round immediately (also used by benches to align
  /// sampling instants); the callback variant exposes the full result.
  void probe(detect::InconsistencyDetector::DetectCallback cb = nullptr);

  /// The node's protocol demultiplexer (used by IdeaService routing).
  [[nodiscard]] net::Dispatcher& dispatcher() { return stack().dispatcher; }

 private:
  /// The paper's per-node stack, in construction order.
  struct Stack {
    Stack(IdeaNode& node, net::Transport& transport, IdeaConfig config,
          std::uint64_t seed);

    net::Transport& transport;
    IdeaConfig config;
    overlay::TemperatureTracker temperature;
    overlay::TwoLayerView two_layer;
    net::Dispatcher dispatcher;
    overlay::GossipAgent gossip;
    overlay::RanSubAgent ransub;
    detect::InconsistencyDetector detector;
    ResolutionManager resolution;
    AdaptiveController controller;

    LevelSample level;
    std::uint64_t detection_timer = 0;
    std::uint64_t background_timer = 0;
    std::uint64_t blocked_writes = 0;

    bool attached = false;
    LevelListener on_level;
    RoundListener on_round_user;
    DiscrepancyListener on_discrepancy;
  };

  [[nodiscard]] Stack& stack() {
    assert(stack_ != nullptr && "store-only IdeaNode has no stack");
    return *stack_;
  }
  [[nodiscard]] const Stack& stack() const {
    assert(stack_ != nullptr && "store-only IdeaNode has no stack");
    return *stack_;
  }

  /// Record hosting activity for temperature purposes: the node stays
  /// hot and in the file's top layer.
  void note_replica_activity();
  void on_detection(const detect::DetectionResult& result);
  void on_scan_report(const detect::ScanReport& report);
  void arm_background_timer(SimDuration period);
  void background_tick();
  [[nodiscard]] std::vector<NodeId> current_top_layer();

  NodeId self_;
  FileId file_;
  replica::ReplicaStore store_;
  std::unique_ptr<Stack> stack_;  ///< Null on a store-only node.
};

}  // namespace idea::core
