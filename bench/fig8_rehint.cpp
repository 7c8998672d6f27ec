/// \file fig8_rehint.cpp
/// \brief Figure 8: the hint is re-set at runtime.
///
/// Same deployment as Figure 7, run for 200 s (40 updates per writer).
/// Hints start at 95% and are re-set to 90% at t = 100 s.  The paper's
/// observation: the achieved lowest level tracks ~95% in the first half and
/// ~90% in the second — the adaptive interface responds to the mid-run
/// change without restarting anything.

#include "bench/common.hpp"

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"csv", "first-hint", "second-hint", "seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));
  const double first_hint = flags.get_double("first-hint", 0.95);
  const double second_hint = flags.get_double("second-hint", 0.90);
  std::unique_ptr<SeriesCsv> csv;
  if (flags.has("csv")) {
    csv = std::make_unique<SeriesCsv>(flags.get_string("csv", "fig8.csv"));
  }

  core::ClusterConfig cfg = paper_cluster(seed);
  cfg.idea.controller.mode = core::AdaptiveMode::kHintBased;
  cfg.idea.controller.hint = 0.0;  // bystanders are not users (Table 1)
  core::IdeaCluster cluster(cfg);
  cluster.start();
  for (NodeId w : kWriters) cluster.node(w).set_hint(first_hint);
  cluster.warm_up(kWriters, sec(25));
  cluster.node(kWriters.front()).demand_active_resolution();
  cluster.run_for(sec(5));

  TimeSeries worst("view from the user");
  TimeSeries average("system average");
  const SimTime t0 = cluster.sim().now();
  int index = 0;
  for (SimDuration t = 0; t < sec(200); t += sec(5)) {
    if (t == sec(100)) {
      // The users re-hint to 90% halfway through (Figure 8).
      for (NodeId w : kWriters) cluster.node(w).set_hint(second_hint);
    }
    write_burst(cluster, index++, seed);
    cluster.run_for(msec(400));
    const double now_sec = to_sec(cluster.sim().now() - t0);
    const LevelSnapshot snap = snapshot_levels(cluster);
    worst.add(now_sec, snap.worst);
    average.add(now_sec, snap.average);
    if (csv) {
      csv->add("worst", now_sec, snap.worst);
      csv->add("average", now_sec, snap.average);
    }
    cluster.run_for(sec(5) - msec(400));
  }

  print_header("Figure 8: hint 95% for t<100 s, re-hinted to 90% after");
  TextTable table({"t (s)", "view from the user", "system average"});
  for (std::size_t i = 0; i < worst.size(); ++i) {
    table.add_row({TextTable::num(worst.time_at(i), 1),
                   TextTable::percent(worst.value_at(i), 1),
                   TextTable::percent(average.value_at(i), 1)});
  }
  std::printf("%s", table.render().c_str());
  const double low_first = worst.min_in_window(0, 100);
  const double low_second = worst.min_in_window(100, 200);
  std::printf("lowest user-view level, first 100 s:  %s (hint %s)\n",
              TextTable::percent(low_first, 1).c_str(),
              TextTable::percent(first_hint, 0).c_str());
  std::printf("lowest user-view level, second 100 s: %s (hint %s)\n",
              TextTable::percent(low_second, 1).c_str(),
              TextTable::percent(second_hint, 0).c_str());
  std::printf("paper: ~95%% in the first half, ~90%% in the second\n");
  return 0;
}
