/// \file formula4_rate.cpp
/// \brief §6.3.2 / Formula 4: deriving the optimal background-resolution
///        rate from available bandwidth, bandwidth cap and per-round cost.
///
/// We measure the real per-round communication cost c of a background round
/// in the booking deployment, then sweep the available bandwidth b and cap
/// x%, printing the optimal rate b*x%/c and the period IDEA would choose —
/// including the clamping applied by learned over/undersell bounds.

#include "bench/common.hpp"
#include "core/controller.hpp"

namespace idea::bench {
namespace {

/// Measure the mean wire bytes of one background-resolution round.
double measure_round_cost(std::uint64_t seed) {
  core::ClusterConfig cfg = paper_cluster(seed);
  cfg.idea.controller.mode = core::AdaptiveMode::kFullyAutomatic;
  cfg.idea.background_period = sec(20);
  core::IdeaCluster cluster(cfg);
  cluster.start();
  cluster.warm_up(kWriters, sec(25));

  std::uint64_t rounds = 0;
  cluster.node(kWriters.front())
      .set_round_listener([&](const core::RoundStats& s) {
        if (s.succeeded && !s.active) ++rounds;
      });
  cluster.transport().counters().reset();
  int index = 0;
  for (SimDuration t = 0; t < sec(100); t += sec(5)) {
    write_burst(cluster, index++, seed);
    cluster.run_for(sec(5));
  }
  std::uint64_t resolve_bytes = 0;
  for (const auto& [type, count] : cluster.transport().counters().by_type()) {
    (void)count;
  }
  // Approximate resolve bytes by message share (all resolve messages).
  const auto& c = cluster.transport().counters();
  const double resolve_fraction =
      static_cast<double>(c.messages_with_prefix("resolve.")) /
      static_cast<double>(std::max<std::uint64_t>(1, c.total_messages()));
  resolve_bytes = static_cast<std::uint64_t>(
      resolve_fraction * static_cast<double>(c.total_bytes()));
  return rounds > 0 ? static_cast<double>(resolve_bytes) /
                          static_cast<double>(rounds)
                    : 0.0;
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));

  const double c_bytes = measure_round_cost(seed);
  print_header("Formula 4: optimal background-resolution rate");
  std::printf("measured one-round communication cost c = %.0f bytes\n\n",
              c_bytes);

  TextTable table({"available bandwidth b", "cap x%", "optimal rate (Hz)",
                   "period (s)"});
  for (const double b_kbps : {64.0, 256.0, 1024.0, 8192.0}) {
    for (const double cap : {0.05, 0.20}) {
      core::ControllerConfig ccfg;
      ccfg.mode = core::AdaptiveMode::kFullyAutomatic;
      ccfg.available_bandwidth = b_kbps * 1024.0 / 8.0;  // kbit/s -> B/s
      ccfg.bandwidth_cap_fraction = cap;
      double chosen_period = 0.0;
      core::AdaptiveController controller(
          ccfg, [] {}, [&](SimDuration p) { chosen_period = to_sec(p); });
      controller.observe_round_cost(c_bytes);
      const double rate = controller.adjust_frequency();
      char bw[32];
      std::snprintf(bw, sizeof(bw), "%.0f kbit/s", b_kbps);
      table.add_row({bw, TextTable::percent(cap, 0),
                     TextTable::num(rate, 4),
                     TextTable::num(chosen_period, 1)});
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf("optimal_rate = b * x%% / c (Formula 4), clamped into the "
              "learned [oversell, undersell] frequency window\n");
  return 0;
}
