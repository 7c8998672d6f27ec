/// \file shard_scalability.cpp
/// \brief Throughput scaling of the sharded cluster layer: files x nodes.
///
/// Sweeps deployments from 4 endpoints / 250 files up to 32 endpoints /
/// 2000 files (replication k=3 throughout), drives each with the macro
/// run hotpath and obs_overhead time (bench/common.hpp's run_kv_macro:
/// one open-loop write tenant at 8 ops/s per endpoint, Zipf(0.9) key
/// popularity), and reports aggregate applied-write throughput in
/// simulated ops/s plus the wall-clock cost of simulating it.  A final
/// pair of runs repeats the largest deployment with and without the
/// BatchingTransport to isolate what per-tick coalescing saves on the
/// wire.
///
///   $ ./shard_scalability [--files 2000] [--endpoints 32] [--sim-secs 20]
///                         [--seed 2007] [--skip-sweep] [--no-compare]
///                         [--skip-window-sweep] [--window-csv out.csv]
///
/// The final section sweeps BatchingOptions::window (0, 1, 5, 20, 100 ms)
/// at quarter scale and reports the latency-vs-batch-size tradeoff: batch
/// factor and mean per-message queueing delay per window.

#include <cstdio>

#include "bench/common.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::bench {
namespace {

struct RunConfig {
  std::uint32_t endpoints = 32;
  std::uint32_t files = 2000;
  SimDuration sim_duration = sec(20);
  bool batching = true;
  /// BatchingOptions::window — how long a destination queue may wait for
  /// more traffic.  0 coalesces only same-tick sends.
  SimDuration batch_window = 0;
  std::uint64_t seed = 2007;
};

KvMacroResult run_once(const RunConfig& rc) {
  shard::ShardedClusterConfig cfg = macro_config(rc.endpoints, rc.seed);
  cfg.batching = rc.batching;
  cfg.batch.window = rc.batch_window;
  return run_kv_macro(cfg, rc.files, rc.sim_duration);
}

/// Applied puts per simulated second.
double throughput(const RunConfig& rc, const KvMacroResult& r) {
  const double sim_seconds = to_sec(rc.sim_duration);
  return sim_seconds > 0.0
             ? static_cast<double>(r.puts_applied) / sim_seconds
             : 0.0;
}

void add_row(TextTable& table, const RunConfig& rc, const KvMacroResult& r,
             const char* note) {
  table.add_row({
      TextTable::integer(rc.endpoints),
      TextTable::integer(rc.files),
      TextTable::integer(static_cast<long long>(r.puts_applied)),
      TextTable::num(throughput(rc, r), 1),
      TextTable::num(r.batch_factor, 2),
      TextTable::integer(static_cast<long long>(r.wire_messages)),
      TextTable::num(r.converged_pct, 1),
      TextTable::num(r.wall_ms, 0),
      note,
  });
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"csv", "endpoints", "files", "no-compare",
                                 "seed", "sim-secs", "skip-sweep",
                                 "skip-window-sweep", "window-csv"});

  RunConfig top;
  top.endpoints =
      static_cast<std::uint32_t>(flags.get_int("endpoints", 32));
  top.files = static_cast<std::uint32_t>(flags.get_int("files", 2000));
  top.sim_duration = sec_f(flags.get_double("sim-secs", 20.0));
  top.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));

  print_header("Shard scalability: aggregate throughput, files x nodes");
  TextTable table({"endpoints", "files", "puts", "puts/sim-s",
                   "batchx", "wire msgs", "converged %", "wall ms",
                   "note"});

  if (!flags.get_bool("skip-sweep", false)) {
    // Proportional sweep up to the headline deployment.
    const std::uint32_t divisors[] = {8, 4, 2};
    for (const std::uint32_t d : divisors) {
      RunConfig rc = top;
      rc.endpoints = std::max(2u, top.endpoints / d);
      rc.files = std::max(16u, top.files / d);
      add_row(table, rc, run_once(rc), "");
    }
  }

  const bool compare = !flags.get_bool("no-compare", false);
  // The headline is the first full-size run; an untimed run first warms
  // the heap and caches, so the wall speedup below compares two warm runs.
  if (compare) run_once(top);
  const KvMacroResult headline = run_once(top);
  add_row(table, top, headline, "headline");

  KvMacroResult unbatched;
  if (compare) {
    RunConfig rc = top;
    rc.batching = false;
    unbatched = run_once(rc);
    add_row(table, rc, unbatched, "no batching");
  }

  std::printf("%s", table.render().c_str());

  // Batching window sweep (ROADMAP follow-up): a nonzero window holds
  // destination queues open so later sends can pile in — bigger batches
  // and fewer wire envelopes, paid for with per-message queueing delay.
  // Reported per window: batch factor, mean added delay, wire messages,
  // and the workload-level effects (applied puts, convergence).
  if (!flags.get_bool("skip-window-sweep", false)) {
    print_header("Batching window sweep: latency vs batch size");
    TextTable wtable({"window ms", "batchx", "avg wait ms", "wire msgs",
                      "puts/sim-s", "converged %", "wall ms"});
    const SimDuration windows[] = {0, msec(1), msec(5), msec(20), msec(100)};
    for (const SimDuration w : windows) {
      RunConfig rc = top;
      // Sweep at the quarter-scale deployment so the five runs stay cheap.
      rc.endpoints = std::max(2u, top.endpoints / 4);
      rc.files = std::max(16u, top.files / 4);
      rc.batch_window = w;
      const KvMacroResult r = run_once(rc);
      wtable.add_row({
          TextTable::num(to_sec(w) * 1000.0, 1),
          TextTable::num(r.batch_factor, 2),
          TextTable::num(r.avg_queue_wait_ms, 2),
          TextTable::integer(static_cast<long long>(r.wire_messages)),
          TextTable::num(throughput(rc, r), 1),
          TextTable::num(r.converged_pct, 1),
          TextTable::num(r.wall_ms, 0),
      });
    }
    std::printf("%s", wtable.render().c_str());
    std::printf("window tradeoff: batching delay is bounded by the window; "
                "pick the largest window whose added delay the workload "
                "tolerates.\n");
    if (flags.has("window-csv")) {
      wtable.write_csv(flags.get_string("window-csv", "window_sweep.csv"));
    }
  }
  std::printf("headline: %u endpoints hosting %u replicated files, "
              "%.0f applied puts/sim-s, simulated in %.1f s wall\n",
              top.endpoints, top.files, throughput(top, headline),
              headline.wall_ms / 1000.0);
  if (compare && unbatched.wire_messages > 0) {
    const double saved =
        100.0 * (1.0 - static_cast<double>(headline.wire_messages) /
                           static_cast<double>(unbatched.wire_messages));
    std::printf("batching: %.2f logical msgs per envelope, %.1f%% fewer "
                "wire messages, %.1fx wall speedup on the same workload\n",
                headline.batch_factor, saved,
                unbatched.wall_ms / headline.wall_ms);
  }
  if (flags.has("csv")) {
    table.write_csv(flags.get_string("csv", "shard_scalability.csv"));
  }
  return 0;
}
