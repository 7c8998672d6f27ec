#pragma once
/// \file controller.hpp
/// \brief Detection-driven adaptive consistency: the per-file/per-tenant
///        control loop that closes ROADMAP item 4.
///
/// The paper's thesis is that *detecting* inconsistency and adapting beats
/// statically chosen levels.  Every signal the loop needs already exists —
/// each file carries a consistency level (the detector's rule over the
/// peer counts anti-entropy reports, RequestRouter::level), the router
/// counts escalations and measures exact per-read staleness, and obs
/// records all of it deterministically.  The ConsistencyController is the
/// missing consumer: a periodic sim-clock tick that turns those signals
/// into a per-file consistency *target*, plus a per-tenant negotiator that
/// retunes bounded-staleness bounds against a declared Slo.
///
/// Control rules (each evaluated once per tick window):
///
///  * Escalate  — a file that saw >= hot_writes writes in the window AND
///    any contention evidence (bounded escalations, stale policy reads, or
///    the file's consistency level dropping under detector_floor) has
///    its target raised to Strong (or Quorum{r} when escalate_to_quorum):
///    hot contended files are served from the coordinator until they calm.
///  * Step down — an escalated file with hold_windows consecutive calm
///    windows (no contention evidence AND write volume below hot_writes)
///    returns to the session's declared level.
///  * Relax     — a file with cold_windows consecutive write-free windows,
///    the last of them quiet (no escalations or stale reads — replicas
///    proved healed), relaxes to EventualNearest: nothing is changing, so
///    the nearest replica is as good as any.  A renewed write rewarms the
///    file to the declared level synchronously (inside on_write, before
///    any later read routes), since Eventual has no bound to cap what a
///    read between the write and the next tick would see.
///  * Renegotiate — per tenant, the window's reads are scored against the
///    declared Slo: too many reads over the latency clause loosens the
///    tenant's staleness bound by one version (fewer escalations, lower
///    latency); too many stale-beyond-SLO reads tightens it.
///
/// Determinism: the controller runs on the sim clock, iterates files and
/// tenants in ordered-map order, draws no RNG, and appends every decision
/// to a reproducible decision log whose FNV/mix64 digest is golden-testable
/// — two same-seed adaptive runs produce byte-identical logs.  With
/// `enabled = false` (default) the controller is never constructed and
/// every routing path is byte-identical to the pre-adaptive build.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "adapt/slo.hpp"
#include "client/consistency.hpp"
#include "obs/observability.hpp"
#include "sim/simulator.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace idea::adapt {

struct ControllerConfig {
  /// Master switch: off (default) means the cluster never constructs a
  /// controller and the routing hot path is byte-identical to today.
  bool enabled = false;
  /// Control-loop tick period.
  SimDuration period = msec(500);
  /// Writes per window at or above which a file counts as hot.
  std::uint32_t hot_writes = 4;
  /// Bounded escalations per window at or above which a hot file counts
  /// as contended.
  std::uint32_t escalation_trigger = 1;
  /// Consistency level under which a hot file counts as contended (the
  /// level is 1.0 when fully consistent).
  double detector_floor = 0.75;
  /// Consecutive write-free windows before a file relaxes to Eventual.
  std::uint32_t cold_windows = 4;
  /// Consecutive calm windows before an escalated file steps down.
  std::uint32_t hold_windows = 2;
  /// Escalate to Quorum{quorum_r} instead of Strong.
  bool escalate_to_quorum = false;
  std::uint32_t quorum_r = 0;
  /// Ceiling for a renegotiated staleness bound (versions).
  std::uint64_t max_bound = 8;
  /// Fraction of a tenant's window reads allowed over the latency clause
  /// before the bound loosens.
  double latency_pressure = 0.05;
  /// Fraction allowed over the staleness clause before the bound
  /// tightens.
  double staleness_pressure = 0.01;
};

struct ControllerStats {
  std::uint64_t ticks = 0;
  std::uint64_t decisions = 0;     ///< Log lines appended.
  std::uint64_t escalations = 0;   ///< Declared/eventual -> strong/quorum.
  std::uint64_t step_downs = 0;    ///< Escalated -> declared.
  std::uint64_t relaxations = 0;   ///< Declared -> eventual.
  std::uint64_t rewarms = 0;       ///< Eventual -> declared on new writes.
  std::uint64_t renegotiations = 0;  ///< Tenant bound shifts.
  std::uint64_t reads_observed = 0;
  std::uint64_t writes_observed = 0;
};

/// The per-file/per-tenant adaptive consistency control loop.  One per
/// ShardedCluster; sessions opt in per SessionOptions::adaptive and the
/// RequestRouter consults effective_level() at serve time.
class ConsistencyController {
 public:
  /// What the controller currently wants for a file, relative to the
  /// session's declared level.
  enum class Target : std::uint8_t {
    kDeclared,  ///< No override: serve the declared level (default).
    kEventual,  ///< Cold file: relax to EventualNearest.
    kStrong,    ///< Hot contended file: coordinator reads.
    kQuorum,    ///< Hot contended file: quorum reads.
  };

  /// `probe` answers "what consistency level does this file carry right
  /// now" (RequestRouter::level); wired by the cluster.
  ConsistencyController(sim::Simulator& sim, ControllerConfig config,
                        obs::Observability* obs);

  ConsistencyController(const ConsistencyController&) = delete;
  ConsistencyController& operator=(const ConsistencyController&) = delete;

  void set_level_probe(std::function<double(FileId)> probe) {
    probe_ = std::move(probe);
  }

  /// Begin ticking on the sim clock; idempotent.
  void start();
  void stop();

  /// Declare (or replace) a tenant's SLO.  Tenants that never declare one
  /// keep their sessions' bounds untouched.
  void declare_slo(std::uint32_t tenant, const Slo& slo);

  // ------------------------------------------------------------------
  // Feedback (called by the router on every routed op)
  // ------------------------------------------------------------------

  /// Record a completed read.  `adaptive` marks reads from opted-in
  /// sessions (only those feed tenant SLO accounting); static-session
  /// reads still inform per-file contention signals.
  void on_read(FileId file, std::uint32_t tenant, bool adaptive,
               const client::ReadResult& result);

  /// Record a write routed to `file`.
  void on_write(FileId file);

  // ------------------------------------------------------------------
  // Consultation (router serve time)
  // ------------------------------------------------------------------

  /// The level an adaptive session should actually be served at, given
  /// its declared level: the file's current target override, with
  /// bounded-staleness bounds renegotiated per the tenant's SLO shift.
  [[nodiscard]] client::ConsistencyLevel effective_level(
      FileId file, std::uint32_t tenant,
      const client::ConsistencyLevel& declared) const;

  /// The raw per-file target (kDeclared for unknown files).
  [[nodiscard]] Target target_of(FileId file) const;

  /// The tenant's current bound shift in versions (0 when never
  /// renegotiated).
  [[nodiscard]] std::int64_t bound_shift(std::uint32_t tenant) const;

  /// Run one control window now (also runs periodically after start()).
  void tick();

  [[nodiscard]] const ControllerStats& stats() const { return stats_; }

  /// Every decision the controller ever made, one fixed-format line per
  /// decision, in decision order.  Reproducible across same-seed runs.
  [[nodiscard]] const std::vector<std::string>& decision_log() const {
    return log_;
  }

  /// FNV-1a over each log line, folded order-sensitively with mix64 —
  /// the golden-testable fingerprint of the whole control history.
  [[nodiscard]] std::uint64_t decision_digest() const;

 private:
  struct FileState {
    Target target = Target::kDeclared;
    // Window accumulators (reset every tick).
    std::uint32_t writes = 0;
    std::uint32_t reads = 0;
    std::uint32_t escalations = 0;
    std::uint32_t stale_reads = 0;
    // Cross-window bookkeeping.
    std::uint32_t idle_windows = 0;  ///< Consecutive write-free windows.
    std::uint32_t calm_windows = 0;  ///< Consecutive uncontended windows.
  };

  struct TenantState {
    Slo slo;
    bool declared = false;
    std::int64_t shift = 0;  ///< Versions added to declared bounds.
    // Window accumulators (adaptive reads only; reset every tick).
    std::uint64_t reads = 0;
    std::uint64_t over_latency = 0;
    std::uint64_t over_staleness = 0;
  };

  /// `file` is signed so tenant-scope decisions can log file=-1.
  void decide(const char* verb, std::int64_t file, std::uint32_t tenant,
              const std::string& detail);

  sim::Simulator& sim_;
  ControllerConfig config_;
  obs::Observability* obs_;
  std::function<double(FileId)> probe_;
  // Ordered maps: tick() iterates them, and decision order must be
  // reproducible.  File states are never GC'd — a target must outlive
  // the window that set it.
  std::map<FileId, FileState> files_;
  std::map<std::uint32_t, TenantState> tenants_;
  std::vector<std::string> log_;
  ControllerStats stats_;
  sim::EventId tick_event_{};
  bool running_ = false;
};

}  // namespace idea::adapt
