/// \file ablation_flat_vs_twolayer.cpp
/// \brief Ablation of the paper's central design choice (§4.1): detect and
///        resolve within a small temperature-selected top layer vs a flat
///        architecture where every node participates.
///
/// We build the same 40-node deployment and run one resolution round and
/// one detection round twice: once over the 4-writer top layer, once over
/// all 40 nodes.  The paper's argument — the top layer makes detection and
/// resolution fast because its size tracks the number of *active writers*,
/// not the network — falls out directly: the sequential resolution round
/// over the flat membership costs ~10x more time and messages.

#include <memory>

#include "bench/common.hpp"
#include "core/resolution.hpp"
#include "net/dispatcher.hpp"
#include "net/sim_transport.hpp"
#include "util/stats.hpp"

namespace idea::bench {
namespace {

struct AblationResult {
  double active_ms = 0.0;
  double detect_ms = 0.0;
  std::uint64_t resolve_msgs = 0;
};

AblationResult run(bool flat, std::uint64_t seed) {
  constexpr std::uint32_t kNodes = 40;
  sim::PlanetLabParams lat;
  lat.nodes = kNodes;
  lat.diameter_delay = msec(120);
  lat.placement_seed = seed;
  sim::PlanetLabLatency latency(lat);
  sim::Simulator sim;
  net::SimTransportOptions topt;
  topt.node_count = kNodes;
  topt.seed = seed;
  net::SimTransport transport(sim, latency, topt);

  std::vector<NodeId> membership;
  if (flat) {
    for (NodeId n = 0; n < kNodes; ++n) membership.push_back(n);
  } else {
    membership = kWriters;
  }

  core::ResolutionConfig rcfg;
  rcfg.policy.deployment_seed = seed;
  rcfg.collect_processing = msec(8);

  std::vector<std::unique_ptr<replica::ReplicaStore>> stores;
  std::vector<std::unique_ptr<net::Dispatcher>> dispatchers;
  std::vector<std::unique_ptr<core::ResolutionManager>> managers;
  for (NodeId n = 0; n < kNodes; ++n) {
    stores.push_back(std::make_unique<replica::ReplicaStore>(n, 1));
    dispatchers.push_back(std::make_unique<net::Dispatcher>());
    managers.push_back(std::make_unique<core::ResolutionManager>(
        n, 1, transport, *stores[n], [&membership] { return membership; },
        rcfg, seed + n));
    dispatchers[n]->route("resolve.", managers[n].get());
    transport.attach(n, dispatchers[n].get());
  }

  // The active writers diverge (same workload in both configurations).
  auto gen = apps::make_stroke_generator(seed);
  for (NodeId w : kWriters) {
    auto [content, meta] = gen(w, 0);
    stores[w]->apply_local(sim.now() + msec(w), content, meta);
  }

  AblationResult result;
  core::RoundStats stats;
  managers[kWriters.front()]->set_round_callback(
      [&](const core::RoundStats& s) { stats = s; });
  managers[kWriters.front()]->start_active();
  sim.run_until(sim.now() + sec(60));
  result.active_ms = to_ms(stats.phase1_dispatch + stats.phase2_collect);
  result.resolve_msgs = transport.counters().messages_with_prefix("resolve.");

  // Detection-round latency over the same membership: one probe fan-out,
  // wait for all replies — approximated analytically from the latency
  // model (max RTT over the membership from the initiator).
  SimDuration worst_rtt = 0;
  for (NodeId peer : membership) {
    if (peer == kWriters.front()) continue;
    worst_rtt = std::max(worst_rtt, 2 * latency.mean(kWriters.front(), peer));
  }
  result.detect_ms = to_ms(worst_rtt);
  return result;
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));

  RunningStat two_ms, flat_ms, two_msgs, flat_msgs, two_det, flat_det;
  for (int rep = 0; rep < 5; ++rep) {
    const AblationResult two = run(/*flat=*/false, seed + 10u * rep);
    const AblationResult flat = run(/*flat=*/true, seed + 10u * rep);
    two_ms.add(two.active_ms);
    flat_ms.add(flat.active_ms);
    two_msgs.add(static_cast<double>(two.resolve_msgs));
    flat_msgs.add(static_cast<double>(flat.resolve_msgs));
    two_det.add(two.detect_ms);
    flat_det.add(flat.detect_ms);
  }

  print_header("Ablation: two-layer (top layer of 4) vs flat (all 40 "
               "nodes) detection/resolution");
  TextTable table({"architecture", "active resolution (ms)",
                   "resolve messages", "detection round (ms)"});
  table.add_row({"two-layer (paper)", TextTable::num(two_ms.mean(), 1),
                 TextTable::num(two_msgs.mean(), 1),
                 TextTable::num(two_det.mean(), 1)});
  table.add_row({"flat", TextTable::num(flat_ms.mean(), 1),
                 TextTable::num(flat_msgs.mean(), 1),
                 TextTable::num(flat_det.mean(), 1)});
  std::printf("%s", table.render().c_str());
  std::printf("resolution slowdown of flat vs two-layer: %.1fx in time, "
              "%.1fx in messages\n",
              flat_ms.mean() / two_ms.mean(),
              flat_msgs.mean() / two_msgs.mean());
  std::printf("paper (§4.1): \"due to the top-layer's relatively small "
              "size, it is much faster to detect and resolve inconsistency "
              "among its members than the whole network\"\n");
  return 0;
}
