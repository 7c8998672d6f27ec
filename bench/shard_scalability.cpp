/// \file shard_scalability.cpp
/// \brief Throughput scaling of the sharded cluster layer: files x nodes.
///
/// Sweeps deployments from 4 endpoints / 250 files up to 32 endpoints /
/// 2000 files (replication k=3 throughout), drives each with the same
/// open-loop key-value workload (workload::OpenLoopEngine, Zipf(0.9)
/// popularity at the old per-client aggregate rate), and reports
/// aggregate applied-write
/// throughput in simulated ops/s plus the wall-clock cost of simulating
/// it.  A final pair of runs repeats the largest deployment with and
/// without the BatchingTransport to isolate what per-tick coalescing
/// saves on the wire.
///
///   $ ./shard_scalability [--files 2000] [--endpoints 32] [--sim-secs 20]
///                         [--clients-per-endpoint 2] [--seed 2007]
///                         [--skip-sweep] [--no-compare]
///                         [--skip-window-sweep] [--window-csv out.csv]
///
/// The final section sweeps BatchingOptions::window (0, 1, 5, 20, 100 ms)
/// at quarter scale and reports the latency-vs-batch-size tradeoff: batch
/// factor and mean per-message queueing delay per window.

#include <chrono>
#include <cstdio>
#include <vector>

#include "apps/kvstore.hpp"
#include "bench/common.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::bench {
namespace {

struct RunResult {
  std::uint32_t endpoints = 0;
  std::uint32_t files = 0;
  std::uint64_t ops_attempted = 0;
  std::uint64_t puts_applied = 0;
  double sim_seconds = 0.0;
  double throughput = 0.0;       ///< Applied puts per simulated second.
  double wall_ms = 0.0;
  std::uint64_t wire_messages = 0;
  std::uint64_t logical_messages = 0;
  double batch_factor = 1.0;
  double avg_queue_wait_ms = 0.0;  ///< Mean batching delay per message.
  std::size_t converged = 0;
  std::size_t sampled = 0;
};

struct RunConfig {
  std::uint32_t endpoints = 32;
  std::uint32_t files = 2000;
  std::uint32_t clients_per_endpoint = 2;
  SimDuration sim_duration = sec(20);
  bool batching = true;
  /// BatchingOptions::window — how long a destination queue may wait for
  /// more traffic.  0 coalesces only same-tick sends.
  SimDuration batch_window = 0;
  std::uint64_t seed = 2007;
};

RunResult run_once(const RunConfig& rc) {
  const auto wall_start = std::chrono::steady_clock::now();

  shard::ShardedClusterConfig cfg = macro_config(rc.endpoints, rc.seed);
  cfg.batching = rc.batching;
  cfg.batch.window = rc.batch_window;
  shard::ShardedCluster cluster(cfg);

  cluster.place(1, rc.files);
  apps::KvStore kv(cluster,
                   apps::KvStoreOptions{.buckets = rc.files, .first_file = 1});
  // One open-loop write tenant standing in for all scripted clients: the
  // same aggregate arrival rate (clients / 250 ms) and Zipf(0.9) key
  // popularity the old per-client KvWorkload produced, now expressed
  // through the shared workload engine.
  const std::uint32_t clients = rc.endpoints * rc.clients_per_endpoint;
  workload::TenantSpec writes;
  writes.name = "kv-writers";
  writes.keys = rc.files * 4;
  writes.read_fraction = 0.0;
  writes.rate = steady_rate(static_cast<double>(clients) * 4.0);
  writes.zipf = steady_zipf(0.9);
  workload::OpenLoopEngine engine(
      cluster.sim(),
      workload::EngineOptions{cluster.sim().now(),
                              cluster.sim().now() + rc.sim_duration,
                              rc.seed ^ 0xBEEF},
      {writes}, [&](const workload::Op& op) {
        char key[16];
        std::snprintf(key, sizeof key, "k%06u", op.key);
        char value[32];
        std::snprintf(value, sizeof value, "op%llu",
                      static_cast<unsigned long long>(op.index));
        kv.put(key, value);
      });
  engine.start();
  cluster.run_for(rc.sim_duration + sec(10));  // run, then settle

  RunResult r;
  r.endpoints = rc.endpoints;
  r.files = rc.files;
  r.ops_attempted = engine.total_ops();
  r.puts_applied = kv.puts();
  r.sim_seconds = to_sec(rc.sim_duration);
  r.throughput = r.sim_seconds > 0.0
                     ? static_cast<double>(r.puts_applied) / r.sim_seconds
                     : 0.0;
  r.wire_messages = cluster.wire_counters().total_messages();
  if (cluster.batching() != nullptr) {
    r.logical_messages = cluster.batching()->stats().logical_messages;
    r.batch_factor = cluster.batching()->stats().batch_factor();
    r.avg_queue_wait_ms =
        cluster.batching()->stats().avg_queue_wait_usec() / 1000.0;
  } else {
    r.logical_messages = r.wire_messages;
  }
  // Convergence spot-check over a deterministic sample of tenants.
  for (FileId f = 1; f <= rc.files; f += 7) {
    ++r.sampled;
    if (cluster.converged(f)) ++r.converged;
  }
  r.wall_ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - wall_start)
                  .count();
  return r;
}

void add_row(TextTable& table, const RunResult& r, const char* note) {
  table.add_row({
      TextTable::integer(r.endpoints),
      TextTable::integer(r.files),
      TextTable::integer(static_cast<long long>(r.puts_applied)),
      TextTable::num(r.throughput, 1),
      TextTable::num(r.batch_factor, 2),
      TextTable::integer(static_cast<long long>(r.wire_messages)),
      TextTable::num(100.0 * static_cast<double>(r.converged) /
                         static_cast<double>(r.sampled),
                     1),
      TextTable::num(r.wall_ms, 0),
      note,
  });
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"clients-per-endpoint", "csv", "endpoints",
                                 "files", "no-compare", "seed", "sim-secs",
                                 "skip-sweep", "skip-window-sweep",
                                 "window-csv"});

  RunConfig top;
  top.endpoints =
      static_cast<std::uint32_t>(flags.get_int("endpoints", 32));
  top.files = static_cast<std::uint32_t>(flags.get_int("files", 2000));
  top.clients_per_endpoint = static_cast<std::uint32_t>(
      flags.get_int("clients-per-endpoint", 2));
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
      add_row(table, run_once(rc), "");
    }
  }

  const RunResult headline = run_once(top);
  add_row(table, headline, "headline");

  RunResult unbatched;
  if (!flags.get_bool("no-compare", false)) {
    RunConfig rc = top;
    rc.batching = false;
    unbatched = run_once(rc);
    add_row(table, unbatched, "no batching");
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
      const RunResult r = run_once(rc);
      wtable.add_row({
          TextTable::num(to_sec(w) * 1000.0, 1),
          TextTable::num(r.batch_factor, 2),
          TextTable::num(r.avg_queue_wait_ms, 2),
          TextTable::integer(static_cast<long long>(r.wire_messages)),
          TextTable::num(r.throughput, 1),
          TextTable::num(100.0 * static_cast<double>(r.converged) /
                             static_cast<double>(r.sampled),
                         1),
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
              headline.endpoints, headline.files, headline.throughput,
              headline.wall_ms / 1000.0);
  if (unbatched.endpoints != 0 && unbatched.wire_messages > 0) {
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
