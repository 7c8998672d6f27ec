/// \file fig10_automatic.cpp
/// \brief Figure 10: consistency level over time in the automatic system.
///
/// Same deployment as Table 3: booking servers, background resolution every
/// 20 s vs every 40 s, consistency level perceived by the top-layer nodes
/// sampled every 5 s.  The paper's observation: the 20 s run holds a higher
/// average consistency level — the frequency/overhead trade-off of §6.3.2.

#include "apps/booking.hpp"
#include "bench/common.hpp"

namespace idea::bench {
namespace {

TimeSeries run_series(SimDuration period, std::uint64_t seed,
                      SeriesCsv* csv, const std::string& label) {
  core::ClusterConfig cfg = paper_cluster(seed);
  cfg.idea.controller.mode = core::AdaptiveMode::kFullyAutomatic;
  cfg.idea.background_period = period;
  core::IdeaCluster cluster(cfg);
  cluster.start();
  cluster.warm_up(kWriters, sec(25));
  cluster.node(kWriters.front()).demand_active_resolution();
  cluster.run_for(sec(5));

  apps::BookingParams bp;
  bp.capacity = 100000;  // ample seats: this figure is about consistency
  apps::BookingSystem booking(cluster, kWriters, bp, seed);

  TimeSeries series(label);
  const SimTime t0 = cluster.sim().now();
  for (SimDuration t = 0; t < sec(100); t += sec(5)) {
    for (NodeId s : kWriters) booking.try_book(s);
    cluster.run_for(msec(1800));
    const double now_sec = to_sec(cluster.sim().now() - t0);
    series.add(now_sec, snapshot_levels(cluster).average);
    if (csv) csv->add(label, now_sec, snapshot_levels(cluster).average);
    cluster.run_for(sec(5) - msec(1800));
  }
  return series;
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"csv", "seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));
  std::unique_ptr<SeriesCsv> csv;
  if (flags.has("csv")) {
    csv = std::make_unique<SeriesCsv>(flags.get_string("csv", "fig10.csv"));
  }

  const TimeSeries fast =
      run_series(sec(20), seed, csv.get(), "period-20s");
  const TimeSeries slow =
      run_series(sec(40), seed, csv.get(), "period-40s");

  print_header("Figure 10: consistency level of the automatic booking "
               "system (background resolution every 20 s vs 40 s)");
  TextTable table({"t (s)", "level @ 20 s period", "level @ 40 s period"});
  for (std::size_t i = 0; i < fast.size(); ++i) {
    table.add_row({TextTable::num(fast.time_at(i), 1),
                   TextTable::percent(fast.value_at(i), 1),
                   TextTable::percent(slow.value_at(i), 1)});
  }
  std::printf("%s", table.render().c_str());
  std::printf("mean level @ 20 s: %s   mean level @ 40 s: %s\n",
              TextTable::percent(fast.mean_value(), 1).c_str(),
              TextTable::percent(slow.mean_value(), 1).c_str());
  std::printf("minimum @ 20 s:    %s   minimum @ 40 s:    %s\n",
              TextTable::percent(fast.min_value(), 1).c_str(),
              TextTable::percent(slow.min_value(), 1).c_str());
  std::printf("paper: the higher frequency holds a higher average "
              "consistency level, at higher overhead (Table 3)\n");
  return 0;
}
