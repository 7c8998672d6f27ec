#pragma once
/// \file observability.hpp
/// \brief Deployment-wide observability: per-endpoint metric registries, a
///        cluster-level aggregator, the tracer, and the escalation→repair
///        trace hand-off.
///
/// One Observability instance per ShardedCluster (created only when
/// ObservabilityConfig::enabled — the default-off path hands every
/// component a null Meter, so disabled observability costs one branch per
/// record site and changes no behavior).  Guarantees that matter:
///
///  * Enabling observability never perturbs the protocols: recording draws
///    no RNG, sends no messages, and trace ids ride in message fields that
///    do not count toward wire_bytes — fixed-seed runs stay byte-identical
///    to observability-off runs (golden-tested).
///
///  * export_metrics_json() is byte-deterministic: name-sorted metrics,
///    sim-clock values only, endpoints in id order.
///
/// The repair-trace hand-off closes the loop the ISSUE's acceptance
/// criterion asks for: when a traced read observes staleness (a bounded
/// read escalating, an eventual read served behind the coordinator), the
/// router parks the trace context under the file.  Anti-entropy rounds for
/// that file adopt the parked context — tagging the digest/repair exchange
/// without changing it — until a repair actually heals the replica, at
/// which point the agent clears the entry.  The exported span tree then
/// runs client → router decision → serving/escalation endpoints → the AE
/// round that repaired the staleness the read saw.

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/ids.hpp"

namespace idea::obs {

/// What a deployment records: metrics, and optionally a trace of every
/// session operation.
struct ObservabilityConfig {
  /// Master switch.  Off (default): no registries, no tracer, components
  /// hold null Meters — the one-branch null sink.
  bool enabled = false;
  /// Mint + propagate a trace context for every session operation.
  bool tracing = false;
};

class Observability {
 public:
  Observability(std::uint32_t endpoints, ObservabilityConfig config);

  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

  // --- registries ------------------------------------------------------
  [[nodiscard]] MetricsRegistry& cluster() { return cluster_; }
  [[nodiscard]] const MetricsRegistry& cluster() const { return cluster_; }
  [[nodiscard]] MetricsRegistry& endpoint(NodeId id);
  [[nodiscard]] std::uint32_t endpoint_count() const {
    return static_cast<std::uint32_t>(endpoints_.size());
  }

  [[nodiscard]] Meter cluster_meter() { return Meter(&cluster_); }
  [[nodiscard]] Meter endpoint_meter(NodeId id) {
    return Meter(&endpoint(id));
  }

  /// Grow the per-endpoint registries (elastic membership joins).
  void ensure_endpoints(std::uint32_t count);

  /// Cluster-level aggregate: the cluster registry folded together with
  /// every endpoint registry (counters add, histograms merge).
  [[nodiscard]] MetricsRegistry aggregate() const;

  /// The whole deployment's metrics as JSON: cluster registry, aggregate,
  /// then each endpoint in id order.  Byte-deterministic.
  [[nodiscard]] std::string export_metrics_json() const;

  // --- tracing ---------------------------------------------------------
  /// Null when tracing is disabled — callers branch once.
  [[nodiscard]] Tracer* tracer() { return tracer_.get(); }
  [[nodiscard]] const Tracer* tracer() const { return tracer_.get(); }

  /// Park `tc` under `file`: the next anti-entropy rounds for the file
  /// adopt it (see peek/clear below).  Overwrites an earlier parked trace.
  void note_repair_trace(FileId file, const TraceContext& tc);

  /// The parked context for `file` (inactive when none).  Not consumed:
  /// every AE round until the heal is tagged.
  [[nodiscard]] TraceContext peek_repair_trace(FileId file) const;

  /// Drop the parked context — called when a traced repair applied
  /// updates (the staleness healed) or the file is torn down.
  void clear_repair_trace(FileId file);

 private:
  MetricsRegistry cluster_;
  std::deque<MetricsRegistry> endpoints_;  ///< Stable refs across growth.
  std::unique_ptr<Tracer> tracer_;
  std::unordered_map<FileId, TraceContext> repair_traces_;
};

}  // namespace idea::obs
