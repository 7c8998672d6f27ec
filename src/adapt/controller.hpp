#pragma once
/// \file controller.hpp
/// \brief Adaptive consistency for the sharded cluster: the
///        per-file/per-tenant control loop over routed reads and writes.
///
/// The paper's thesis is that adapting to observed inconsistency beats
/// statically chosen levels.  On the sharded path the observations are
/// the router's: it counts bounded-staleness escalations and measures
/// exact per-read staleness, and obs records both deterministically.  (The
/// paper's detector and Formula 1 level run on the single-file path,
/// core::IdeaNode; a sharded rank runs no detection.)  The
/// ConsistencyController turns those signals, on a periodic sim-clock
/// tick, into a per-file consistency *target*, plus a per-tenant
/// negotiator that retunes bounded-staleness bounds against a declared
/// Slo.
///
/// Control rules (each evaluated once per 500 ms tick window):
///
///  * Escalate  — a file that saw >= 4 writes in the window (hot) AND any
///    contention evidence (a bounded escalation or a stale policy read)
///    has its target raised to Strong: hot contended files are served
///    from the coordinator until they calm.
///  * Step down — an escalated file with 2 consecutive calm windows (no
///    contention evidence AND fewer than 4 writes) returns to the
///    session's declared level.
///  * Relax     — a file with 4 consecutive write-free windows, the last
///    of them quiet (no escalations or stale reads — replicas proved
///    healed), relaxes to EventualNearest: nothing is changing, so the
///    nearest replica is as good as any.  A renewed write rewarms the
///    file to the declared level synchronously (inside on_write, before
///    any later read routes), since Eventual has no bound to cap what a
///    read between the write and the next tick would see.
///  * Renegotiate — per tenant, the window's reads are scored against the
///    declared Slo: more than 1 % of them stale beyond the SLO tightens
///    the tenant's staleness bound by one version; otherwise more than
///    5 % over the latency clause loosens it by one (fewer escalations,
///    lower latency).  The shift and the bound stay within 8 versions.
///
/// These values are protocol constants (controller.cpp); the only
/// setting is whether the cluster runs a controller at all.
///
/// Determinism: the controller runs on the sim clock, iterates files and
/// tenants in ordered-map order, draws no RNG, and appends every decision
/// to a reproducible decision log whose FNV/mix64 digest is golden-testable
/// — two same-seed adaptive runs produce byte-identical logs.  With
/// `enabled = false` (default) the controller is never constructed and
/// every routing path is byte-identical to the pre-adaptive build.

#include <cstdint>
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

/// Whether a cluster runs the control loop.  Its signals are the
/// router's bounded escalations and measured stale reads, plus write
/// volume; its thresholds are constants (see the rules above).
struct ControllerConfig {
  /// Off (default) means the cluster never constructs a controller and
  /// the routing hot path is byte-identical to today.
  bool enabled = false;
};

struct ControllerStats {
  std::uint64_t ticks = 0;
  std::uint64_t decisions = 0;     ///< Log lines appended.
  std::uint64_t escalations = 0;   ///< Declared/eventual -> strong.
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
  };

  ConsistencyController(sim::Simulator& sim, obs::Observability* obs);

  ConsistencyController(const ConsistencyController&) = delete;
  ConsistencyController& operator=(const ConsistencyController&) = delete;

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
  obs::Observability* obs_;
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
