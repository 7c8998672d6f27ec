/// \file obs_overhead.cpp
/// \brief Observability overhead trajectory: the macro shard run (the
///        hotpath.cpp headline configuration) executed three times per
///        repetition — observability off, metrics-only, and full
///        metrics+tracing — back to back to cancel machine drift.
///
/// Emits BENCH_obs_overhead.json so CI accumulates the overhead ratio per
/// PR.  The contract the obs layer must keep: identical replica digests
/// across all three modes (observation never perturbs the protocol), and
/// full instrumentation within a few percent of the uninstrumented run.
///
/// One untimed warm-up run per mode comes first: the first runs in a
/// process pay page faults and a cold heap (the first off run read about
/// 1.5x its warm time), which would bias whichever mode the first rep
/// starts with.  Then the mode that runs first rotates from rep to rep
/// (rep r starts with mode r mod 3), so no mode always runs after the
/// heaviest one.  Each run is timed from cluster construction through
/// teardown twice: by wall clock and by the thread's CPU clock
/// (CLOCK_THREAD_CPUTIME_ID, which does not count time the host gave to
/// other processes).  The overhead estimator is paired: each rep divides
/// its metrics and full runs by the same rep's off run, and the JSON
/// reports every rep's ratios plus their median and quartiles.  Pairing
/// cancels host-speed drift between reps, not swings within a rep.  The
/// JSON also records each mode's median, min and max, hardware_cores and
/// build_type.
///
/// --smoke, the CI gate, runs the same macro with 30 reps instead of 60,
/// and writes a JSON only where --json names one.
/// A run takes about 17 ms, so the gate costs under two seconds.  On a
/// shared 4-core host the gate's median full/off ratio spread 0.067 over
/// 20 gate runs (1.027-1.093); with 15 reps it spread up to 0.134 and
/// with 5 up to 0.24.  Smaller runs overstate the overhead: at 8
/// endpoints and 200 files full tracing costs about 20 %.
///
///   $ ./obs_overhead [--smoke] [--json BENCH_obs_overhead.json]
///                    [--endpoints 32] [--files 2000] [--sim-secs 10]
///                    [--reps 60] [--trace-out trace.json] [--strict]
///
/// --trace-out writes the chrome trace of one extra, untimed full-mode run
/// (load it at chrome://tracing or https://ui.perfetto.dev).  --strict
/// exits nonzero when the median paired wall ratio full/off exceeds
/// --max-overhead (default 1.05).

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <time.h>

#include "bench/common.hpp"
#include "obs/observability.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::bench {
namespace {

enum class ObsMode { kOff, kMetrics, kFull };

const char* mode_name(ObsMode mode) {
  switch (mode) {
    case ObsMode::kOff:
      return "off";
    case ObsMode::kMetrics:
      return "metrics";
    case ObsMode::kFull:
      return "full";
  }
  return "?";
}

struct RunResult {
  KvMacroResult run;
  std::uint64_t traces = 0;
  std::uint64_t spans = 0;
};

RunResult run_macro(ObsMode mode, std::uint32_t endpoints,
                    std::uint32_t files, SimDuration sim_duration,
                    std::uint64_t seed, const std::string& trace_out) {
  shard::ShardedClusterConfig cfg = macro_config(endpoints, seed);
  cfg.observability.enabled = mode != ObsMode::kOff;
  cfg.observability.tracing = mode == ObsMode::kFull;
  RunResult r;
  const auto collect_trace = [&](shard::ShardedCluster& cluster) {
    obs::Tracer* tracer =
        cluster.obs() != nullptr ? cluster.obs()->tracer() : nullptr;
    if (mode != ObsMode::kFull || tracer == nullptr) return;
    r.traces = tracer->traces_started();
    r.spans = tracer->spans().size();
    if (trace_out.empty()) return;
    std::FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f == nullptr) return;
    const std::string json = tracer->export_chrome_trace();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%zu spans)\n", trace_out.c_str(),
                static_cast<std::size_t>(r.spans));
  };
  r.run = run_kv_macro(cfg, files, sim_duration, collect_trace);
  return r;
}

/// This thread's CPU clock, in ms.
double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) +
         1e-6 * static_cast<double>(ts.tv_nsec);
}

/// The `q` quantile of `values`, interpolating linearly between order
/// statistics (the "inclusive" method, so a handful of reps works).
double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

/// Median and quartiles of a sample.
struct Spread {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
};

Spread spread(const std::vector<double>& values) {
  return {quantile(values, 0.25), quantile(values, 0.5),
          quantile(values, 0.75)};
}

/// One mode's runs over the reps, in rep order.
struct ModeRuns {
  std::vector<double> wall_ms;
  std::vector<double> cpu_ms;
};

double lowest(const std::vector<double>& values) {
  return *std::min_element(values.begin(), values.end());
}

double highest(const std::vector<double>& values) {
  return *std::max_element(values.begin(), values.end());
}

/// Per rep, `mode`'s cost over the same rep's off run.
std::vector<double> paired(const std::vector<double>& mode,
                           const std::vector<double>& off) {
  std::vector<double> ratios;
  for (std::size_t rep = 0; rep < off.size(); ++rep) {
    ratios.push_back(mode[rep] / off[rep]);
  }
  return ratios;
}

/// One `"field": {"obs_off": .., "obs_metrics": .., "obs_full": ..},`
/// member of the JSON object.
void write_modes(std::FILE* f, const char* field, double off, double metrics,
                 double full) {
  std::fprintf(f, "  \"%s\": {\n", field);
  std::fprintf(f, "    \"obs_off\": %.1f,\n", off);
  std::fprintf(f, "    \"obs_metrics\": %.1f,\n", metrics);
  std::fprintf(f, "    \"obs_full\": %.1f\n", full);
  std::fprintf(f, "  },\n");
}

/// `"name": {"per_rep": [..], "median": .., "q1": .., "q3": ..}`.
void write_ratios(std::FILE* f, const char* name,
                  const std::vector<double>& ratios, bool last) {
  const Spread s = spread(ratios);
  std::fprintf(f, "      \"%s\": {\"per_rep\": [", name);
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    std::fprintf(f, "%s%.4f", i == 0 ? "" : ", ", ratios[i]);
  }
  std::fprintf(f, "], \"median\": %.4f, \"q1\": %.4f, \"q3\": %.4f}%s\n",
               s.median, s.q1, s.q3, last ? "" : ",");
}

void write_json(const std::string& path, bool smoke, std::uint32_t endpoints,
                std::uint32_t files, double sim_secs, std::size_t reps,
                const ModeRuns& off, const ModeRuns& metrics,
                const ModeRuns& full, const RunResult& full_sample,
                bool digests_match) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"obs_overhead\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"hardware_cores\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"build_type\": \"%s\",\n", IDEA_BUILD_TYPE);
  std::fprintf(f, "  \"config\": {\n");
  std::fprintf(f, "    \"endpoints\": %u,\n", endpoints);
  std::fprintf(f, "    \"files\": %u,\n", files);
  std::fprintf(f, "    \"sim_secs\": %.1f,\n", sim_secs);
  std::fprintf(f, "    \"reps\": %zu\n", reps);
  std::fprintf(f, "  },\n");
  write_modes(f, "median_wall_ms", spread(off.wall_ms).median,
              spread(metrics.wall_ms).median, spread(full.wall_ms).median);
  write_modes(f, "min_wall_ms", lowest(off.wall_ms), lowest(metrics.wall_ms),
              lowest(full.wall_ms));
  write_modes(f, "max_wall_ms", highest(off.wall_ms), highest(metrics.wall_ms),
              highest(full.wall_ms));
  write_modes(f, "median_thread_cpu_ms", spread(off.cpu_ms).median,
              spread(metrics.cpu_ms).median, spread(full.cpu_ms).median);
  std::fprintf(f, "  \"paired_ratio\": {\n");
  std::fprintf(f, "    \"wall\": {\n");
  write_ratios(f, "metrics_vs_off", paired(metrics.wall_ms, off.wall_ms),
               false);
  write_ratios(f, "full_vs_off", paired(full.wall_ms, off.wall_ms), true);
  std::fprintf(f, "    },\n");
  std::fprintf(f, "    \"thread_cpu\": {\n");
  write_ratios(f, "metrics_vs_off", paired(metrics.cpu_ms, off.cpu_ms), false);
  write_ratios(f, "full_vs_off", paired(full.cpu_ms, off.cpu_ms), true);
  std::fprintf(f, "    }\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"full_run\": {\n");
  std::fprintf(f, "    \"puts_applied\": %" PRIu64 ",\n",
               full_sample.run.puts_applied);
  std::fprintf(f, "    \"logical_messages\": %" PRIu64 ",\n",
               full_sample.run.logical_messages);
  std::fprintf(f, "    \"traces\": %" PRIu64 ",\n", full_sample.traces);
  std::fprintf(f, "    \"spans\": %" PRIu64 ",\n", full_sample.spans);
  std::fprintf(f, "    \"content_digest_xor\": \"%016" PRIx64 "\"\n",
               full_sample.run.digest_xor);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"digests_match_across_modes\": %s\n",
               digests_match ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"endpoints", "files", "json", "max-overhead",
                                 "reps", "seed", "sim-secs", "smoke", "strict",
                                 "trace-out"});
  const bool smoke = flags.get_bool("smoke", false);

  print_header("Observability overhead: macro run off / metrics / full");

  const auto endpoints =
      static_cast<std::uint32_t>(flags.get_int("endpoints", 32));
  const auto files = static_cast<std::uint32_t>(flags.get_int("files", 2000));
  const double sim_secs = flags.get_double("sim-secs", 10.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));
  const auto reps =
      static_cast<std::size_t>(flags.get_int("reps", smoke ? 30 : 60));
  const std::string trace_out = flags.get_string("trace-out", "");
  const double max_overhead = flags.get_double("max-overhead", 1.05);
  const bool strict = flags.get_bool("strict", false);

  const SimDuration sim_duration = sec_f(sim_secs);
  constexpr std::array<ObsMode, 3> kModes = {ObsMode::kOff, ObsMode::kMetrics,
                                             ObsMode::kFull};
  std::array<std::vector<RunResult>, 3> runs;
  std::array<ModeRuns, 3> costs;
  // Untimed warm-up, one run per mode (see the file comment).
  for (const ObsMode mode : kModes) {
    run_macro(mode, endpoints, files, sim_duration, seed, "");
  }
  for (std::size_t rep = 0; rep < reps; ++rep) {
    // Run the three modes back to back within each repetition so machine
    // drift (thermal, cache, background load) hits all of them alike,
    // and rotate which one goes first so none always runs on a cold heap.
    for (std::size_t i = 0; i < kModes.size(); ++i) {
      const std::size_t m = (rep + i) % kModes.size();
      const auto wall_start = WallClock::now();
      const double cpu_start = thread_cpu_ms();
      const RunResult r =
          run_macro(kModes[m], endpoints, files, sim_duration, seed, "");
      const double wall_ms = ms_since(wall_start);
      const double cpu_ms = thread_cpu_ms() - cpu_start;
      std::printf("rep %zu %-7s: %7.1f ms wall, %7.1f ms cpu, %" PRIu64
                  " logical msgs, digest %016" PRIx64 "\n",
                  rep, mode_name(kModes[m]), wall_ms, cpu_ms,
                  r.run.logical_messages, r.run.digest_xor);
      runs[m].push_back(r);
      costs[m].wall_ms.push_back(wall_ms);
      costs[m].cpu_ms.push_back(cpu_ms);
    }
  }
  const auto& [off_runs, metrics_runs, full_runs] = runs;
  const auto& [off, metrics, full] = costs;
  if (!trace_out.empty()) {
    run_macro(ObsMode::kFull, endpoints, files, sim_duration, seed,
              trace_out);
  }

  // Pure-observer check: instrumentation must not change what the cluster
  // computed.  A digest mismatch is a correctness bug, not a perf result.
  bool digests_match = true;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const KvMacroResult& base = off_runs[rep].run;
    digests_match &= base.digest_xor == metrics_runs[rep].run.digest_xor;
    digests_match &= base.digest_xor == full_runs[rep].run.digest_xor;
    digests_match &=
        base.logical_messages == full_runs[rep].run.logical_messages;
  }
  if (!digests_match) {
    std::fprintf(stderr,
                 "FAIL: digests/message counts diverge across obs modes\n");
  }

  const auto report = [](const char* name, const Spread& r) {
    std::printf("  %-16s %.3f [%.3f, %.3f]\n", name, r.median, r.q1, r.q3);
  };
  const Spread full_wall = spread(paired(full.wall_ms, off.wall_ms));
  std::printf("paired ratios, median [q1, q3] over %zu reps:\n", reps);
  report("wall metrics/off", spread(paired(metrics.wall_ms, off.wall_ms)));
  report("wall full/off", full_wall);
  report("cpu metrics/off", spread(paired(metrics.cpu_ms, off.cpu_ms)));
  report("cpu full/off", spread(paired(full.cpu_ms, off.cpu_ms)));

  const std::string json = json_out(flags, smoke, "BENCH_obs_overhead.json");
  if (!json.empty()) {
    write_json(json, smoke, endpoints, files, sim_secs, reps, off, metrics,
               full, full_runs.front(), digests_match);
  }

  if (!digests_match) return 1;
  if (strict && full_wall.median > max_overhead) {
    std::fprintf(stderr, "FAIL: paired full/off wall x%.3f exceeds x%.3f\n",
                 full_wall.median, max_overhead);
    return 1;
  }
  return 0;
}
