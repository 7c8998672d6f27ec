/// \file fig7_hint.cpp
/// \brief Figure 7(a)/(b): the adaptive interface under a standing hint.
///
/// 40 Planet-Lab-like nodes, four concurrent writers of one file; after
/// warm-up the writers form the top layer.  Each writer updates every 5 s
/// for 100 s (20 updates).  The run is repeated for hint levels 95% and 85%
/// (or the --hint given).  Every 5 s we sample the consistency level of the
/// worst writer ("view from the user") and the average across writers
/// ("system average"); IDEA's hint controller invokes active resolution
/// whenever a level falls below the hint.
///
/// Paper's observations to reproduce in shape: the level dips just below
/// the hint (94% for a 95% hint, 84% for 85%) and is restored within one
/// sampling interval.

#include "bench/common.hpp"

namespace idea::bench {
namespace {

struct RunResult {
  TimeSeries worst{"view from the user"};
  TimeSeries average{"system average"};
};

RunResult run_hint(double hint, std::uint64_t seed, SimDuration duration,
                   SeriesCsv* csv, const std::string& csv_prefix) {
  core::ClusterConfig cfg = paper_cluster(seed);
  cfg.idea.controller.mode = core::AdaptiveMode::kHintBased;
  cfg.idea.controller.hint = 0.0;  // bystanders are not users (Table 1)
  core::IdeaCluster cluster(cfg);
  cluster.start();
  // Only the participants give IDEA a hint; the other 36 nodes are
  // bottom-layer bystanders.
  for (NodeId w : kWriters) cluster.node(w).set_hint(hint);
  cluster.warm_up(kWriters, sec(25));
  // Settle to a common base so the measured window starts consistent.
  cluster.node(kWriters.front()).demand_active_resolution();
  cluster.run_for(sec(5));

  RunResult result;
  const SimTime t0 = cluster.sim().now();
  int index = 0;
  for (SimDuration t = 0; t < duration; t += sec(5)) {
    write_burst(cluster, index++, seed);
    // Sample shortly after the burst, when inconsistency peaks: detection
    // has seen the conflict but resolution may still be in flight.
    cluster.run_for(msec(400));
    const double now_sec = to_sec(cluster.sim().now() - t0);
    const LevelSnapshot snap = snapshot_levels(cluster);
    result.worst.add(now_sec, snap.worst);
    result.average.add(now_sec, snap.average);
    if (csv != nullptr) {
      csv->add(csv_prefix + ":worst", now_sec, snap.worst);
      csv->add(csv_prefix + ":average", now_sec, snap.average);
    }
    cluster.run_for(sec(5) - msec(400));
  }
  return result;
}

void report(double hint, const RunResult& r) {
  print_header("Figure 7: hint level " +
               TextTable::percent(hint, 0) +
               " (view from the user / system average vs time)");
  TextTable table({"t (s)", "view from the user", "system average"});
  for (std::size_t i = 0; i < r.worst.size(); ++i) {
    table.add_row({TextTable::num(r.worst.time_at(i), 1),
                   TextTable::percent(r.worst.value_at(i), 1),
                   TextTable::percent(r.average.value_at(i), 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("lowest user-view level: %s (hint %s)\n",
              TextTable::percent(r.worst.min_value(), 1).c_str(),
              TextTable::percent(hint, 0).c_str());
  std::printf("paper: lowest level ~ hint - 1%% (94%% / 84%%), restored "
              "within one 5 s sample\n");
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"csv", "duration", "hint", "seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));
  const SimDuration duration = sec(flags.get_int("duration", 100));
  std::unique_ptr<SeriesCsv> csv;
  if (flags.has("csv")) {
    csv = std::make_unique<SeriesCsv>(flags.get_string("csv", "fig7.csv"));
  }

  std::vector<double> hints;
  if (flags.has("hint")) {
    hints.push_back(flags.get_double("hint", 0.95));
  } else {
    hints = {0.95, 0.85};  // Figure 7(a) and 7(b)
  }
  for (double hint : hints) {
    const RunResult r = run_hint(hint, seed, duration, csv.get(),
                                 "hint" + TextTable::num(hint, 2));
    report(hint, r);
  }
  return 0;
}
