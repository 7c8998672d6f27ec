#pragma once
/// \file engine.hpp
/// \brief Deterministic open-loop workload engine: seeded arrival schedules
///        on the sim clock, with phase-scheduled adversarial shape changes.
///
/// It is the sharded system's one load generator: every bench, golden and
/// example that drives a ShardedCluster makes its load here.  Its phase
/// schedules express the shapes that stress the adaptive controller:
///
///  * flash crowds       — a scheduled jump in a tenant's Zipf exponent
///                         (suddenly everyone reads the same few keys);
///  * diurnal load shifts — per-tenant op rates that follow a schedule
///                         (tenant A's day is tenant B's night);
///  * hotspot migration  — the hot end of the key-rank mapping rotates to
///                         a different key range mid-run.
///
/// OpenLoopEngine is a spammer-style generator: each tenant is an
/// independent Poisson arrival process (exponential inter-arrival times
/// from a forked RNG stream) whose rate, Zipf skew, and hotspot offset are
/// piecewise-constant functions of sim time.  Ops are handed to an Issuer
/// callback — the engine knows nothing about sessions or clusters, so the
/// same scenario drives benches, determinism goldens, and unit tests.
///
/// Determinism: one RNG stream per tenant (forked from the engine seed),
/// arrivals scheduled on the sim clock, phases picked by pure time lookup.
/// Two engines with the same seed and tenant specs produce byte-identical
/// op sequences.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace idea::workload {

/// Piecewise-constant op rate: from `start`, the tenant issues
/// `ops_per_sec` operations per simulated second (0 pauses the tenant
/// until the next phase).
struct RatePhase {
  SimTime start = 0;
  double ops_per_sec = 0.0;
};

/// Piecewise-constant Zipf skew: from `start`, key ranks are drawn
/// Zipf(s).  s = 0 is uniform; s >= ~1.2 concentrates most draws on a
/// handful of ranks (the flash-crowd shape).
struct ZipfPhase {
  SimTime start = 0;
  double s = 0.0;
};

/// Piecewise-constant hotspot position: from `start`, rank r maps to key
/// (offset + r) % keys — rotating `offset` migrates the hot keys to a
/// different region of the keyspace without touching the skew.
struct HotspotPhase {
  SimTime start = 0;
  std::uint32_t offset = 0;
};

/// One tenant's workload shape.  Phases must be sorted by start time;
/// before the first phase the first entry's value applies.
struct TenantSpec {
  std::string name;
  std::uint32_t keys = 1;          ///< Keyspace size (ranks 0..keys-1).
  double read_fraction = 1.0;      ///< Remaining ops are writes.
  std::vector<RatePhase> rate;     ///< Required: at least one phase.
  std::vector<ZipfPhase> zipf;     ///< Empty = uniform throughout.
  std::vector<HotspotPhase> hotspot;  ///< Empty = no rotation.
  /// Client attach points; arrivals round-robin origins via the tenant's
  /// RNG.  Empty = co-located (kNoNode).
  std::vector<NodeId> origins;
};

/// One generated operation, handed to the Issuer.
struct Op {
  std::uint32_t tenant = 0;  ///< Index into the engine's tenant vector.
  bool is_read = true;
  std::uint32_t key = 0;     ///< Post-hotspot-rotation key in [0, keys).
  NodeId origin = kNoNode;
  std::uint64_t index = 0;   ///< Per-tenant op sequence number.
};

struct EngineOptions {
  SimTime start = 0;
  SimTime end = 0;           ///< No arrivals at or after this time.
  std::uint64_t seed = 2007;
};

struct TenantStats {
  std::uint64_t ops = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
};

/// Zipf(s) sampler over ranks [0, n) by CDF inversion — the shared
/// implementation the benches used to duplicate.  s = 0 degenerates to
/// uniform.  Deterministic given the caller's RNG.
class ZipfSampler {
 public:
  ZipfSampler(std::uint32_t n, double s);

  [[nodiscard]] std::uint32_t sample(Rng& rng) const;
  [[nodiscard]] double s() const { return s_; }

 private:
  double s_ = 0.0;
  std::vector<double> cdf_;  ///< Empty when uniform (s == 0).
  std::uint32_t n_ = 1;
};

class OpenLoopEngine {
 public:
  using Issuer = std::function<void(const Op&)>;

  OpenLoopEngine(sim::Simulator& sim, EngineOptions options,
                 std::vector<TenantSpec> tenants, Issuer issuer);

  OpenLoopEngine(const OpenLoopEngine&) = delete;
  OpenLoopEngine& operator=(const OpenLoopEngine&) = delete;

  /// Schedule every tenant's first arrival; idempotent.
  void start();

  [[nodiscard]] const TenantStats& stats(std::uint32_t tenant) const {
    return stats_[tenant];
  }
  [[nodiscard]] std::uint64_t total_ops() const;
  [[nodiscard]] const std::vector<TenantSpec>& tenants() const {
    return tenants_;
  }

 private:
  struct TenantRuntime {
    Rng rng;
    std::uint64_t next_index = 0;
    /// Samplers per distinct zipf phase (parallel to spec.zipf; one
    /// uniform sampler when the spec has none).
    std::vector<ZipfSampler> samplers;
  };

  /// The active phase value at `at` (last phase with start <= at, else
  /// the first).
  template <typename Phase>
  static const Phase& phase_at(const std::vector<Phase>& phases, SimTime at);
  [[nodiscard]] std::size_t zipf_phase_index(const TenantSpec& spec,
                                             SimTime at) const;

  /// Schedule the next arrival for tenant `i` given the rate in force
  /// now; a zero-rate phase skips ahead to the next phase boundary.
  void arm(std::uint32_t i);
  void fire(std::uint32_t i);

  sim::Simulator& sim_;
  EngineOptions options_;
  std::vector<TenantSpec> tenants_;
  Issuer issuer_;
  std::vector<TenantRuntime> runtime_;
  std::vector<TenantStats> stats_;
  bool started_ = false;
};

}  // namespace idea::workload
