#pragma once
/// \file latency.hpp
/// \brief Wide-area latency models substituting for the Planet-Lab testbed.
///
/// The paper's experiments run over 40 Planet-Lab nodes spanning the US and
/// Canada.  We replace the physical network with pluggable latency models.
/// `PlanetLabLatency` places nodes on a synthetic continental coordinate
/// plane; one-way delay = propagation (distance-proportional) + a fixed
/// processing floor + lognormal queueing jitter.  This reproduces the two
/// properties the evaluation depends on: (1) pairwise delays are heteroge-
/// neous but stable, and (2) a sequential k-hop protocol costs ~k times the
/// mean one-way delay, which is what makes phase 2 of active resolution
/// linear in top-layer size (Figure 9).

#include <cstdint>
#include <memory>
#include <vector>

#include "util/ids.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace idea::sim {

/// Interface: sample the one-way delay for a message from -> to.
class LatencyModel {
 public:
  virtual ~LatencyModel() = default;

  /// One-way delay sample; must be >= 0.  `rng` supplies the jitter stream.
  virtual SimDuration sample(NodeId from, NodeId to, Rng& rng) = 0;

  /// Expected (mean) one-way delay, used by analytic extrapolations.
  [[nodiscard]] virtual SimDuration mean(NodeId from, NodeId to) const = 0;
};

/// Fixed delay for every pair; handy in unit tests.
class ConstantLatency final : public LatencyModel {
 public:
  explicit ConstantLatency(SimDuration delay) : delay_(delay) {}
  SimDuration sample(NodeId, NodeId, Rng&) override { return delay_; }
  [[nodiscard]] SimDuration mean(NodeId, NodeId) const override {
    return delay_;
  }

 private:
  SimDuration delay_;
};

/// Uniform delay in [lo, hi] independent of the pair.
class UniformLatency final : public LatencyModel {
 public:
  UniformLatency(SimDuration lo, SimDuration hi) : lo_(lo), hi_(hi) {}
  SimDuration sample(NodeId, NodeId, Rng& rng) override {
    return rng.uniform_int(lo_, hi_);
  }
  [[nodiscard]] SimDuration mean(NodeId, NodeId) const override {
    return (lo_ + hi_) / 2;
  }

 private:
  SimDuration lo_, hi_;
};

/// Explicit pairwise base-delay matrix plus multiplicative lognormal jitter.
class MatrixLatency final : public LatencyModel {
 public:
  /// `base[i][j]` is the i->j one-way delay.  `jitter_sigma` is the sigma of
  /// the underlying normal; 0 disables jitter.
  MatrixLatency(std::vector<std::vector<SimDuration>> base,
                double jitter_sigma = 0.0);

  SimDuration sample(NodeId from, NodeId to, Rng& rng) override;
  [[nodiscard]] SimDuration mean(NodeId from, NodeId to) const override;

 private:
  std::vector<std::vector<SimDuration>> base_;
  double jitter_sigma_;
};

/// Parameters of the synthetic Planet-Lab-like continental topology.  The
/// queueing jitter is a constant: lognormal with sigma 0.15 on the
/// underlying normal.
struct PlanetLabParams {
  std::uint32_t nodes = 40;
  /// Propagation delay across the full coordinate plane diagonal (one way).
  SimDuration diameter_delay = msec(60);
  /// Per-message processing/forwarding floor added to every delay.
  SimDuration processing_floor = msec(2);
  /// Seed used to place nodes on the plane (separate from message jitter).
  std::uint64_t placement_seed = 40'2007;
};

/// Synthetic continental topology: nodes at random plane coordinates.
class PlanetLabLatency final : public LatencyModel {
 public:
  explicit PlanetLabLatency(const PlanetLabParams& params);

  SimDuration sample(NodeId from, NodeId to, Rng& rng) override;
  [[nodiscard]] SimDuration mean(NodeId from, NodeId to) const override;

  /// Mean one-way delay averaged over all ordered pairs (diagnostic, and
  /// input to the Figure 9 extrapolation formulas).
  [[nodiscard]] SimDuration mean_pairwise() const;

  /// Grow the topology to at least `count` nodes (elastic membership:
  /// endpoints joining after construction need coordinates too).  New
  /// nodes continue the placement RNG stream, so a topology grown in two
  /// steps is identical to one constructed at the final size; existing
  /// coordinates never move.
  void ensure_nodes(std::uint32_t count);

  [[nodiscard]] std::uint32_t node_count() const {
    return static_cast<std::uint32_t>(x_.size());
  }

 private:
  [[nodiscard]] SimDuration base(NodeId from, NodeId to) const;

  PlanetLabParams params_;
  Rng placement_;              // consumed in ensure_nodes only
  std::vector<double> x_, y_;  // coordinates in [0,1)
};

/// Convenience factory returning a 40-node Planet-Lab-like model matching
/// the paper's deployment scale.
std::unique_ptr<PlanetLabLatency> make_planetlab40();

}  // namespace idea::sim
