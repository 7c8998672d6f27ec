/// \file fig2_tradeoff.cpp
/// \brief Figure 2 (conceptual in the paper): the detection-speed vs
///        overhead trade-off, measured.
///
/// The paper positions IDEA between optimistic consistency (slow detection,
/// low overhead) and strong consistency (instant "detection", high
/// overhead), with TACT as a bounded middle ground.  We run the same
/// all-conflicting workload over the same simulated WAN under all four
/// protocols and measure: propagation delay (write -> known at every
/// replica), messages per update, and write-commit latency.
///
/// Expected shape: optimistic < TACT < IDEA < strong in both propagation
/// speed and per-update message cost; strong additionally pays its cost in
/// write latency.

#include <memory>

#include "baseline/baseline.hpp"
#include "bench/common.hpp"
#include "net/sim_transport.hpp"
#include "util/stats.hpp"

namespace idea::bench {
namespace {

constexpr std::uint32_t kNodes = 12;
constexpr FileId kFile = 1;
const std::vector<NodeId> kTradeoffWriters{1, 5, 9};
constexpr int kUpdatesPerWriter = 10;
constexpr SimDuration kUpdateGap = sec(5);

struct ProtocolResult {
  std::string name;
  double propagation_ms = 0.0;    ///< write -> present at all replicas
  double write_latency_ms = 0.0;  ///< write -> committed for the client
  double msgs_per_update = 0.0;
  double bytes_per_update = 0.0;
};

/// Drive a set of baseline nodes; measure propagation by stepping the sim
/// in small slices and checking all stores.
template <typename MakeNode>
ProtocolResult run_baseline(const std::string& name, MakeNode make_node,
                            std::uint64_t seed) {
  sim::PlanetLabParams lat_params;
  lat_params.nodes = kNodes;
  lat_params.diameter_delay = msec(120);
  lat_params.placement_seed = seed;
  sim::PlanetLabLatency latency(lat_params);
  sim::Simulator sim;
  net::SimTransportOptions topt;
  topt.node_count = kNodes;
  topt.seed = seed;
  net::SimTransport transport(sim, latency, topt);

  std::vector<std::unique_ptr<baseline::BaselineNode>> nodes;
  for (NodeId n = 0; n < kNodes; ++n) {
    nodes.push_back(make_node(n, transport));
    transport.attach(n, nodes.back().get());
    nodes.back()->start();
  }

  RunningStat propagation, write_latency;
  std::uint64_t updates = 0;
  auto gen = apps::make_stroke_generator(seed);
  for (int round = 0; round < kUpdatesPerWriter; ++round) {
    for (NodeId w : kTradeoffWriters) {
      auto [content, meta] = gen(w, round);
      const SimTime written_at = sim.now();
      // Propagation is "everyone has learned one more update"; strong
      // consistency rewrites the update under the primary's identity, so
      // counts are the protocol-neutral completion signal.
      std::vector<std::size_t> counts_before;
      for (const auto& node : nodes) {
        counts_before.push_back(node->store().update_count());
      }
      SimTime committed_at = written_at;
      nodes[w]->write(content, meta,
                      [&committed_at, &sim] { committed_at = sim.now(); });
      ++updates;
      const SimTime deadline = sim.now() + sec(120);
      bool everywhere = false;
      while (!everywhere && sim.now() < deadline) {
        sim.run_until(sim.now() + msec(50));
        everywhere = true;
        for (std::size_t i = 0; i < nodes.size(); ++i) {
          if (nodes[i]->store().update_count() <= counts_before[i]) {
            everywhere = false;
            break;
          }
        }
      }
      propagation.add(to_ms(sim.now() - written_at));
      write_latency.add(to_ms(committed_at - written_at));
    }
    sim.run_until(sim.now() + kUpdateGap);
  }

  ProtocolResult r;
  r.name = name;
  r.propagation_ms = propagation.mean();
  r.write_latency_ms = write_latency.mean();
  r.msgs_per_update = static_cast<double>(
                          transport.counters().total_messages()) /
                      static_cast<double>(updates);
  r.bytes_per_update =
      static_cast<double>(transport.counters().total_bytes()) /
      static_cast<double>(updates);
  return r;
}

ProtocolResult run_idea(std::uint64_t seed) {
  core::ClusterConfig cfg = paper_cluster(seed);
  cfg.nodes = kNodes;
  cfg.sync_sizes();
  cfg.idea.controller.mode = core::AdaptiveMode::kHintBased;
  // hint = 1.0 ("the user does not tolerate any inconsistency", Table 1)
  // puts IDEA in its pure detection-based-resolution regime: every detected
  // conflict is resolved.  A laxer hint would trade propagation delay for
  // cost — that knob is the subject of Figures 7/8, not this comparison.
  cfg.idea.controller.hint = 1.0;
  // Detection is driven by writes here; the periodic probe timer on all 12
  // nodes would only add constant background noise to the accounting.
  cfg.idea.detection_period = 0;
  core::IdeaCluster cluster(cfg);
  cluster.start();
  cluster.warm_up(kTradeoffWriters, sec(25));
  cluster.node(kTradeoffWriters.front()).demand_active_resolution();
  cluster.run_for(sec(5));
  cluster.transport().counters().reset();

  RunningStat propagation;
  std::uint64_t updates = 0;
  auto gen = apps::make_stroke_generator(seed);
  for (int round = 0; round < kUpdatesPerWriter; ++round) {
    for (NodeId w : kTradeoffWriters) {
      auto [content, meta] = gen(w, round);
      const SimTime written_at = cluster.sim().now();
      const std::uint64_t seq = cluster.node(w).store().local_seq() + 1;
      if (!cluster.node(w).write(content, meta)) continue;
      ++updates;
      const replica::UpdateKey key{w, seq};
      const SimTime deadline = cluster.sim().now() + sec(120);
      bool everywhere = false;
      while (!everywhere && cluster.sim().now() < deadline) {
        cluster.run_for(msec(50));
        everywhere = true;
        // IDEA propagates within the top layer (the active writers);
        // bottom-layer nodes are reached by scans/rollback only.
        for (NodeId peer : kTradeoffWriters) {
          if (!cluster.node(peer).store().has(key)) {
            everywhere = false;
            break;
          }
        }
      }
      propagation.add(to_ms(cluster.sim().now() - written_at));
    }
    cluster.run_for(kUpdateGap);
  }

  ProtocolResult r;
  r.name = "IDEA (hint 100%)";
  r.propagation_ms = propagation.mean();
  r.write_latency_ms = 0.0;  // local commit, like optimistic
  // Count the consistency-protocol traffic (detection + resolution), the
  // paper's own accounting in Table 3.  Overlay maintenance (RanSub epochs,
  // bottom-layer gossip) is a fixed per-node background cost independent of
  // the update rate; it is reported separately below.
  const auto& counters = cluster.transport().counters();
  r.msgs_per_update =
      static_cast<double>(counters.messages_with_prefix("detect.") +
                          counters.messages_with_prefix("resolve.")) /
      static_cast<double>(updates);
  r.bytes_per_update =
      static_cast<double>(counters.total_bytes()) /
      static_cast<double>(counters.total_messages()) * r.msgs_per_update;
  const double run_sec = to_sec(cluster.sim().now());
  std::printf("[idea] overlay maintenance (ransub+gossip): %.1f msgs/s "
              "across all %u nodes, independent of update rate\n",
              static_cast<double>(
                  counters.messages_with_prefix("ransub.") +
                  counters.messages_with_prefix("gossip.")) /
                  run_sec,
              kNodes);
  return r;
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));

  std::vector<ProtocolResult> results;

  baseline::OptimisticParams op;
  op.nodes = kNodes;
  op.anti_entropy_period = sec(10);
  results.push_back(run_baseline(
      "optimistic (anti-entropy 10 s)",
      [&](NodeId n, net::Transport& t) {
        return std::make_unique<baseline::OptimisticNode>(n, kFile, t, op,
                                                          seed + n);
      },
      seed));

  baseline::TactParams tp;
  tp.nodes = kNodes;
  tp.order_bound = 3;
  tp.staleness_bound = sec(15);
  results.push_back(run_baseline(
      "TACT-style (order bound 3)",
      [&](NodeId n, net::Transport& t) {
        return std::make_unique<baseline::TactNode>(n, kFile, t, tp);
      },
      seed + 1000));

  results.push_back(run_idea(seed + 2000));

  baseline::StrongParams sp;
  sp.nodes = kNodes;
  sp.primary = 0;
  results.push_back(run_baseline(
      "strong (primary-copy eager)",
      [&](NodeId n, net::Transport& t) {
        return std::make_unique<baseline::StrongNode>(n, kFile, t, sp);
      },
      seed + 3000));

  print_header("Figure 2 (measured): detection/propagation speed vs "
               "communication overhead");
  TextTable table({"protocol", "propagation (ms)", "write latency (ms)",
                   "msgs/update", "KB/update"});
  for (const auto& r : results) {
    table.add_row({r.name, TextTable::num(r.propagation_ms, 1),
                   TextTable::num(r.write_latency_ms, 1),
                   TextTable::num(r.msgs_per_update, 1),
                   TextTable::num(r.bytes_per_update / 1024.0, 2)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("expected shape (paper, Figure 2): optimistic is cheapest and "
              "slowest to restore consistency; strong is fastest and most "
              "expensive (and blocks writers); IDEA sits between, closer "
              "to strong in speed at a fraction of the cost.\n");
  return 0;
}
