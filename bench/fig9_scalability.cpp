/// \file fig9_scalability.cpp
/// \brief Figure 9: scalability of active resolution with top-layer size.
///
/// The paper extrapolates Formula 2, Delay = 0.468 + 104.747 * (n-1) ms,
/// from the Table 2 measurement and plots it for n <= 10.  We measure the
/// real delay for n = 2..10 concurrent writers, print it against the
/// analytic extrapolation (using our own measured per-member cost), and add
/// two ablations the paper discusses: parallel phase 2 ("not difficult to
/// exploit parallelism") and background rounds (Formula 3: no phase 1).

#include "bench/common.hpp"
#include "util/stats.hpp"

namespace idea::bench {
namespace {

struct Point {
  std::size_t top_layer = 0;
  double active_ms = 0.0;
  double background_ms = 0.0;
  double parallel_ms = 0.0;
  double phase1_dispatch_ms = 0.0;
};

Point measure_once(std::uint32_t n_writers, bool parallel_collect,
                   std::uint64_t seed) {
  core::ClusterConfig cfg = paper_cluster(seed);
  cfg.idea.controller.mode = core::AdaptiveMode::kOnDemand;
  cfg.idea.resolution.parallel_collect = parallel_collect;
  core::IdeaCluster cluster(cfg);
  cluster.start();

  std::vector<NodeId> writers;
  for (std::uint32_t i = 0; i < n_writers; ++i) {
    writers.push_back(static_cast<NodeId>((i * 40) / n_writers));
  }
  cluster.warm_up(writers, sec(25));
  auto gen = apps::make_stroke_generator(seed);
  for (NodeId w : writers) {
    auto [content, meta] = gen(w, 1);
    cluster.node(w).write(std::move(content), meta);
  }
  cluster.run_for(sec(2));

  Point p;
  p.top_layer = writers.size();
  const NodeId initiator = writers.front();

  core::RoundStats stats;
  cluster.node(initiator).set_round_listener(
      [&](const core::RoundStats& s) { stats = s; });
  cluster.node(initiator).demand_active_resolution();
  cluster.run_for(sec(30));
  p.active_ms = to_ms(stats.phase1_dispatch + stats.phase2_collect);
  p.phase1_dispatch_ms = to_ms(stats.phase1_dispatch);
  if (parallel_collect) {
    p.parallel_ms = to_ms(stats.phase2_collect);
  }

  // Background round (Formula 3): phase 2 only.
  auto gen2 = apps::make_stroke_generator(seed ^ 0x55);
  for (NodeId w : writers) {
    auto [content, meta] = gen2(w, 2);
    cluster.node(w).write(std::move(content), meta);
  }
  cluster.run_for(sec(2));
  cluster.node(initiator).resolution().start_background();
  cluster.run_for(sec(30));
  p.background_ms = to_ms(stats.phase2_collect);
  return p;
}

/// Average several topology/jitter samples per point; one Planet-Lab
/// placement is a single draw of pairwise distances, so a lone run is noisy.
Point measure(std::uint32_t n_writers, bool parallel_collect,
              std::uint64_t seed, int reps) {
  Point avg;
  avg.top_layer = n_writers;
  int ok = 0;
  for (int r = 0; r < reps; ++r) {
    const Point p =
        measure_once(n_writers, parallel_collect, seed + 1000u * r);
    if (p.active_ms <= 0 && p.background_ms <= 0 && p.parallel_ms <= 0) {
      continue;
    }
    avg.active_ms += p.active_ms;
    avg.background_ms += p.background_ms;
    avg.parallel_ms += p.parallel_ms;
    avg.phase1_dispatch_ms += p.phase1_dispatch_ms;
    ++ok;
  }
  if (ok > 0) {
    avg.active_ms /= ok;
    avg.background_ms /= ok;
    avg.parallel_ms /= ok;
    avg.phase1_dispatch_ms /= ok;
  }
  return avg;
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"csv", "max-top-layer", "reps", "seed"});
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));
  const auto max_n =
      static_cast<std::uint32_t>(flags.get_int("max-top-layer", 10));

  const int reps = static_cast<int>(flags.get_int("reps", 5));
  std::vector<Point> sequential, parallel;
  for (std::uint32_t n = 2; n <= max_n; ++n) {
    sequential.push_back(
        measure(n, /*parallel_collect=*/false, seed + n, reps));
    parallel.push_back(
        measure(n, /*parallel_collect=*/true, seed + 77 + n, reps));
  }

  // Calibrate our own Formula 2 from the n=4 sequential point, the way the
  // paper calibrates from Table 2.
  double per_member = 104.747;
  double dispatch_const = 0.468;
  for (const Point& p : sequential) {
    if (p.top_layer == 4) {
      per_member = (p.active_ms - p.phase1_dispatch_ms) / 3.0;
      dispatch_const = p.phase1_dispatch_ms;
    }
  }

  print_header("Figure 9: active-resolution delay vs top-layer size");
  TextTable table({"n", "measured active (ms)", "formula 2 (ms)",
                   "background (ms)", "parallel phase 2 (ms)",
                   "paper formula (ms)"});
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    const Point& p = sequential[i];
    const double n_minus_1 = static_cast<double>(p.top_layer - 1);
    table.add_row({
        TextTable::integer(static_cast<long long>(p.top_layer)),
        TextTable::num(p.active_ms, 1),
        TextTable::num(dispatch_const + per_member * n_minus_1, 1),
        TextTable::num(p.background_ms, 1),
        TextTable::num(parallel[i].parallel_ms, 1),
        TextTable::num(0.468 + 104.747 * n_minus_1, 1),
    });
  }
  std::printf("%s", table.render().c_str());
  std::printf("calibrated per-member cost: %.2f ms (paper: 104.747 ms)\n",
              per_member);
  std::printf("shape checks: sequential delay grows ~linearly in n; stays "
              "below 1 s for n <= 10; parallel phase 2 is ~flat in n\n");
  if (flags.has("csv")) {
    TextTable csv({"n", "active_ms", "background_ms", "parallel_ms"});
    for (std::size_t i = 0; i < sequential.size(); ++i) {
      csv.add_row({TextTable::integer(
                       static_cast<long long>(sequential[i].top_layer)),
                   TextTable::num(sequential[i].active_ms, 3),
                   TextTable::num(sequential[i].background_ms, 3),
                   TextTable::num(parallel[i].parallel_ms, 3)});
    }
    csv.write_csv(flags.get_string("csv", "fig9.csv"));
  }
  return 0;
}
