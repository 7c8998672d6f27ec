#pragma once
/// \file workload.hpp
/// \brief Synthetic update workloads (§6: "we use a synthetic workload that
///        assumes uniform distribution of the updating frequency").
///
/// Drives a set of writer nodes in a cluster: each writer issues one update
/// per interval (optionally jittered uniformly), for a bounded duration or
/// until stopped.  All updates are treated as conflicting, as in the paper's
/// evaluation setup.

#include <functional>
#include <string>
#include <vector>

#include "core/cluster.hpp"
#include "util/rng.hpp"

namespace idea::apps {

/// Each writer's first update goes out when the workload starts.
struct WorkloadParams {
  SimDuration interval = sec(5);   ///< Nominal inter-update gap per writer.
  double jitter_frac = 0.0;        ///< Uniform jitter: ±frac of interval.
  SimDuration duration = sec(100); ///< Stop issuing after this long.
};

/// Per-update content: returns (content, meta_delta).
using ContentGenerator =
    std::function<std::pair<std::string, double>(NodeId writer, int index)>;

/// Default generator: short stroke-like strings whose meta delta is the sum
/// of their ASCII codes scaled down (the paper's white-board meta-data).
ContentGenerator make_stroke_generator(std::uint64_t seed);

class UpdateWorkload {
 public:
  UpdateWorkload(core::IdeaCluster& cluster, std::vector<NodeId> writers,
                 WorkloadParams params, ContentGenerator generator,
                 std::uint64_t seed);

  /// Schedule all updates on the cluster's simulator.  Call once.
  void start();

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t blocked() const { return blocked_; }
  [[nodiscard]] const std::vector<NodeId>& writers() const {
    return writers_;
  }

 private:
  void schedule_writer(NodeId writer, int index, SimTime when);

  core::IdeaCluster& cluster_;
  std::vector<NodeId> writers_;
  WorkloadParams params_;
  ContentGenerator generator_;
  Rng rng_;
  SimTime end_time_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t blocked_ = 0;
};

}  // namespace idea::apps
