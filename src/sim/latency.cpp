#include "sim/latency.hpp"

#include <cassert>
#include <cmath>

namespace idea::sim {

namespace {

/// Sigma of PlanetLabLatency's lognormal queueing jitter (on the
/// underlying normal).
constexpr double kJitterSigma = 0.15;

}  // namespace

MatrixLatency::MatrixLatency(std::vector<std::vector<SimDuration>> base,
                             double jitter_sigma)
    : base_(std::move(base)), jitter_sigma_(jitter_sigma) {
  for (const auto& row : base_) {
    assert(row.size() == base_.size());
    (void)row;
  }
}

SimDuration MatrixLatency::sample(NodeId from, NodeId to, Rng& rng) {
  const SimDuration b = base_.at(from).at(to);
  if (jitter_sigma_ <= 0.0) return b;
  const double factor = rng.lognormal(0.0, jitter_sigma_);
  return static_cast<SimDuration>(static_cast<double>(b) * factor);
}

SimDuration MatrixLatency::mean(NodeId from, NodeId to) const {
  const SimDuration b = base_.at(from).at(to);
  if (jitter_sigma_ <= 0.0) return b;
  // E[lognormal(0, s)] = exp(s^2/2).
  return static_cast<SimDuration>(
      static_cast<double>(b) * std::exp(jitter_sigma_ * jitter_sigma_ / 2));
}

PlanetLabLatency::PlanetLabLatency(const PlanetLabParams& params)
    : params_(params), placement_(params.placement_seed) {
  ensure_nodes(params.nodes);
}

void PlanetLabLatency::ensure_nodes(std::uint32_t count) {
  while (x_.size() < count) {
    x_.push_back(placement_.uniform01());
    y_.push_back(placement_.uniform01());
  }
}

SimDuration PlanetLabLatency::base(NodeId from, NodeId to) const {
  assert(from < x_.size() && to < x_.size());
  if (from == to) return 0;
  const double dx = x_[from] - x_[to];
  const double dy = y_[from] - y_[to];
  const double dist = std::sqrt(dx * dx + dy * dy) / std::sqrt(2.0);
  return params_.processing_floor +
         static_cast<SimDuration>(
             dist * static_cast<double>(params_.diameter_delay));
}

SimDuration PlanetLabLatency::sample(NodeId from, NodeId to, Rng& rng) {
  const SimDuration b = base(from, to);
  if (b == 0) return 0;
  const double factor = rng.lognormal(0.0, kJitterSigma);
  return static_cast<SimDuration>(static_cast<double>(b) * factor);
}

SimDuration PlanetLabLatency::mean(NodeId from, NodeId to) const {
  const SimDuration b = base(from, to);
  // E[lognormal(0, s)] = exp(s^2/2).
  return static_cast<SimDuration>(
      static_cast<double>(b) * std::exp(kJitterSigma * kJitterSigma / 2));
}

SimDuration PlanetLabLatency::mean_pairwise() const {
  const auto n = static_cast<NodeId>(x_.size());
  if (n < 2) return 0;
  double total = 0.0;
  std::uint64_t pairs = 0;
  for (NodeId i = 0; i < n; ++i) {
    for (NodeId j = 0; j < n; ++j) {
      if (i == j) continue;
      total += static_cast<double>(mean(i, j));
      ++pairs;
    }
  }
  return static_cast<SimDuration>(total / static_cast<double>(pairs));
}

std::unique_ptr<PlanetLabLatency> make_planetlab40() {
  return std::make_unique<PlanetLabLatency>(PlanetLabParams{});
}

}  // namespace idea::sim
