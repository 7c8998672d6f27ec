/// \file parallel_scalability.cpp
/// \brief Multicore runtime scalability: the same fixed-seed ShardedFleet
///        macro run swept across worker-thread counts.
///
/// Two things are on the clock:
///
///   1. Wall time per thread count — the speedup curve.  Reps run
///      interleaved (every thread count once per round), so machine drift
///      hits all of them alike; each point reports the median, min and
///      max.  Meaningful only on a machine with real cores; the JSON
///      records hardware_cores and build_type so a 1-core CI container's
///      flat curve is not mistaken for a runtime regression.  The default
///      60 sim-seconds make a 1-thread Release run take about a second on
///      a 4-core x86-64 box: at 5 sim-seconds a run took about 0.09 s and
///      4 threads read x0.83-x1.04, a cost that a longer run amortizes.
///   2. The determinism oracle — every run at every thread count must
///      produce the exact op digest, endpoint digests and message counts
///      of the first threads=1 run (the sequential oracle).  A mismatch
///      fails the bench regardless of speed.
///
///   $ ./parallel_scalability [--smoke] [--json BENCH_parallel.json]
///       [--endpoints 1000] [--files 4000] [--segments 8] [--sim-secs 60]
///       [--threads 1,2,4,8] [--reps 1] [--seed 2007]

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "runtime/fleet.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::bench {
namespace {

struct SweepPoint {
  std::uint32_t threads = 1;
  std::vector<double> walls;  ///< One per rep, in run order.
  double wall_s = 0.0;        ///< Median over reps.
  double wall_min_s = 0.0;
  double wall_max_s = 0.0;
  double speedup = 1.0;  ///< vs the threads=1 median.
  // From the latest rep (the determinism check compares every rep).
  std::uint64_t op_digest = 0;
  std::uint64_t endpoint_digest_xor = 0;
  std::uint64_t wire_messages = 0;
  std::uint64_t remote_ops = 0;
  std::uint64_t steals = 0;
  std::uint64_t conveyor_packets = 0;

  [[nodiscard]] bool same_result(const SweepPoint& o) const {
    return op_digest == o.op_digest &&
           endpoint_digest_xor == o.endpoint_digest_xor &&
           wire_messages == o.wire_messages;
  }
};

struct MacroConfig {
  std::uint32_t endpoints = 1000;
  std::uint32_t files = 4000;
  std::uint32_t segments = 8;
  double sim_secs = 5.0;
  std::uint64_t seed = 2007;
};

/// One fleet run at `p.threads`: appends its wall time to `p` and
/// overwrites `p`'s digests and counters with this run's.
void run_macro(const MacroConfig& mc, SweepPoint& p) {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = mc.endpoints;
  cfg.replication = 3;
  cfg.seed = mc.seed;
  cfg.runtime.threads = p.threads;
  cfg.runtime.segments = mc.segments;  // pinned across the sweep
  cfg.sync_sizes();
  runtime::ShardedFleet fleet(cfg);
  fleet.place(1, mc.files);
  runtime::FleetWorkloadParams wl;
  wl.ops_per_endpoint_per_sec = 4.0;
  wl.cross_segment_fraction = 0.25;
  wl.duration = sec_f(mc.sim_secs);
  fleet.set_workload(wl);

  const auto start = WallClock::now();
  fleet.run_for(sec_f(mc.sim_secs) + sec(5));
  p.walls.push_back(secs_since(start));

  const runtime::FleetStats s = fleet.stats();
  p.op_digest = s.op_digest;
  p.remote_ops = s.remote_ops;
  p.steals = s.pool.steals;
  p.conveyor_packets = s.conveyor.packets;
  p.endpoint_digest_xor = 0;
  for (const auto& [endpoint, digest] : fleet.endpoint_digests()) {
    p.endpoint_digest_xor ^= mix64(digest + endpoint);
  }
  p.wire_messages = 0;
  for (const auto& [type, count] : fleet.message_counts()) {
    p.wire_messages += count;
  }
  std::printf("threads %2u rep %zu: %.3f s wall, op digest %016" PRIx64
              ", %" PRIu64 " remote ops, %" PRIu64 " steals\n",
              p.threads, p.walls.size() - 1, p.walls.back(), p.op_digest,
              p.remote_ops, p.steals);
}

void write_json(const std::string& path, bool smoke, const MacroConfig& mc,
                const std::vector<SweepPoint>& sweep, bool digests_match) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"parallel_scalability\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"hardware_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", IDEA_BUILD_TYPE);
  std::fprintf(f, "  \"config\": {\n");
  std::fprintf(f, "    \"endpoints\": %u,\n", mc.endpoints);
  std::fprintf(f, "    \"files\": %u,\n", mc.files);
  std::fprintf(f, "    \"segments\": %u,\n", mc.segments);
  std::fprintf(f, "    \"sim_secs\": %.1f,\n", mc.sim_secs);
  std::fprintf(f, "    \"seed\": %" PRIu64 ",\n", mc.seed);
  std::fprintf(f, "    \"reps\": %zu\n", sweep.front().walls.size());
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& p = sweep[i];
    std::fprintf(f, "    {\"threads\": %u, \"wall_s\": %.3f, ", p.threads,
                 p.wall_s);
    std::fprintf(f, "\"wall_min_s\": %.3f, \"wall_max_s\": %.3f, ",
                 p.wall_min_s, p.wall_max_s);
    std::fprintf(f, "\"speedup_vs_1thread\": %.3f, ", p.speedup);
    std::fprintf(f, "\"op_digest\": \"%016" PRIx64 "\", ", p.op_digest);
    std::fprintf(f, "\"endpoint_digest_xor\": \"%016" PRIx64 "\", ",
                 p.endpoint_digest_xor);
    std::fprintf(f, "\"wire_messages\": %" PRIu64 ", ", p.wire_messages);
    std::fprintf(f, "\"remote_ops\": %" PRIu64 ", ", p.remote_ops);
    std::fprintf(f, "\"steals\": %" PRIu64 ", ", p.steals);
    std::fprintf(f, "\"conveyor_packets\": %" PRIu64 "}%s\n",
                 p.conveyor_packets, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f, "  \"digests_match_across_threads\": %s,\n",
               digests_match ? "true" : "false");
  std::fprintf(f,
               "  \"note\": \"wall_s is the median over interleaved reps, "
               "with min and max beside it; speedup_vs_1thread compares "
               "medians.  On a machine with fewer physical cores than "
               "threads the workers time-share and the curve is flat.  The "
               "determinism cross-check (identical digests in every run at "
               "every thread count) holds regardless of core count.\"\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

std::vector<std::uint32_t> parse_threads(const std::string& spec) {
  std::vector<std::uint32_t> out;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok =
        spec.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) {
      out.push_back(static_cast<std::uint32_t>(std::strtoul(
          tok.c_str(), nullptr, 10)));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"endpoints", "files", "json", "reps", "seed",
                                 "segments", "sim-secs", "smoke", "threads"});
  const bool smoke = flags.get_bool("smoke", false);

  print_header("Parallel runtime scalability: fleet macro vs thread count");

  MacroConfig mc;
  mc.endpoints = static_cast<std::uint32_t>(
      flags.get_int("endpoints", smoke ? 32 : 1000));
  mc.files =
      static_cast<std::uint32_t>(flags.get_int("files", smoke ? 120 : 4000));
  mc.segments =
      static_cast<std::uint32_t>(flags.get_int("segments", 8));
  mc.sim_secs = flags.get_double("sim-secs", smoke ? 2.0 : 60.0);
  mc.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));
  const auto reps = static_cast<std::size_t>(
      std::max<std::int64_t>(flags.get_int("reps", 1), 1));
  const std::vector<std::uint32_t> threads = parse_threads(
      flags.get_string("threads", smoke ? "1,2" : "1,2,4,8"));

  std::vector<SweepPoint> sweep(threads.size());
  for (std::size_t i = 0; i < threads.size(); ++i) {
    sweep[i].threads = threads[i];
  }

  // Interleave: every round runs each thread count once, so slow drift
  // of the machine spreads over all points instead of biasing one.
  bool digests_match = true;
  SweepPoint oracle;  // the first run's results
  for (std::size_t rep = 0; rep < reps; ++rep) {
    for (SweepPoint& p : sweep) {
      run_macro(mc, p);
      if (rep == 0 && &p == &sweep.front()) oracle = p;
      digests_match &= p.same_result(oracle);
    }
  }

  for (SweepPoint& p : sweep) {
    p.wall_s = median(p.walls);
    p.wall_min_s = *std::min_element(p.walls.begin(), p.walls.end());
    p.wall_max_s = *std::max_element(p.walls.begin(), p.walls.end());
    p.speedup = sweep.front().wall_s / p.wall_s;
    std::printf("threads %2u: median %.3f s (min %.3f, max %.3f) over %zu "
                "reps, speedup x%.2f\n",
                p.threads, p.wall_s, p.wall_min_s, p.wall_max_s,
                p.walls.size(), p.speedup);
  }

  write_json(flags.get_string("json", "BENCH_parallel.json"), smoke, mc,
             sweep, digests_match);

  if (!digests_match) {
    std::fprintf(stderr,
                 "FAIL: results diverged across thread counts — the "
                 "determinism oracle is broken\n");
    return 1;
  }
  return 0;
}
