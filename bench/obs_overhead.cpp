/// \file obs_overhead.cpp
/// \brief Observability overhead trajectory: the macro shard run (the
///        hotpath.cpp headline configuration) executed three times per
///        repetition — observability off, metrics-only, and full
///        metrics+tracing — interleaved to cancel machine drift.
///
/// Emits BENCH_obs_overhead.json so CI accumulates the overhead ratio per
/// PR.  The contract the obs layer must keep: identical replica digests
/// across all three modes (observation never perturbs the protocol), and
/// full instrumentation within a few percent of wall-clock of the
/// uninstrumented run.
///
/// The mode that runs first rotates from rep to rep (rep r starts with
/// mode r mod 3), so no mode always pays for a cold heap or always runs
/// after the heaviest one.  Each mode reports its median, min and max
/// wall time; the JSON records hardware_cores and build_type beside them.
///
///   $ ./obs_overhead [--smoke] [--json BENCH_obs_overhead.json]
///                    [--endpoints 32] [--files 2000] [--sim-secs 10]
///                    [--reps 3] [--trace-out trace.json] [--strict]
///
/// --trace-out writes the full-mode run's chrome trace (load it at
/// chrome://tracing or https://ui.perfetto.dev).  --strict exits nonzero
/// when the full-mode overhead exceeds --max-overhead (default 1.05).

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

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

/// One mode's wall times over the reps.
struct WallSpread {
  double median_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};

WallSpread wall_spread(const std::vector<RunResult>& runs) {
  std::vector<double> walls;
  walls.reserve(runs.size());
  for (const RunResult& r : runs) walls.push_back(r.run.wall_ms);
  const auto [lo, hi] = std::minmax_element(walls.begin(), walls.end());
  return {median(walls), *lo, *hi};
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

void write_json(const std::string& path, bool smoke, std::uint32_t endpoints,
                std::uint32_t files, double sim_secs, std::size_t reps,
                const WallSpread& off, const WallSpread& metrics,
                const WallSpread& full, const RunResult& full_sample,
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
  write_modes(f, "median_wall_ms", off.median_ms, metrics.median_ms,
              full.median_ms);
  write_modes(f, "min_wall_ms", off.min_ms, metrics.min_ms, full.min_ms);
  write_modes(f, "max_wall_ms", off.max_ms, metrics.max_ms, full.max_ms);
  std::fprintf(f, "  \"overhead_ratio\": {\n");
  std::fprintf(f, "    \"metrics_vs_off\": %.4f,\n",
               metrics.median_ms / off.median_ms);
  std::fprintf(f, "    \"full_vs_off\": %.4f\n",
               full.median_ms / off.median_ms);
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
  const Flags flags(argc, argv);
  const bool smoke = flags.get_bool("smoke", false);

  print_header("Observability overhead: macro run off / metrics / full");

  const auto endpoints = static_cast<std::uint32_t>(
      flags.get_int("endpoints", smoke ? 8 : 32));
  const auto files =
      static_cast<std::uint32_t>(flags.get_int("files", smoke ? 200 : 2000));
  const double sim_secs = flags.get_double("sim-secs", smoke ? 3.0 : 10.0);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));
  const auto reps =
      static_cast<std::size_t>(flags.get_int("reps", smoke ? 1 : 3));
  const std::string trace_out = flags.get_string("trace-out", "");
  const double max_overhead = flags.get_double("max-overhead", 1.05);
  const bool strict = flags.get_bool("strict", false);

  const SimDuration sim_duration = sec_f(sim_secs);
  constexpr std::array<ObsMode, 3> kModes = {ObsMode::kOff, ObsMode::kMetrics,
                                             ObsMode::kFull};
  std::vector<RunResult> off_runs, metrics_runs, full_runs;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    // Interleave the three modes within each repetition so machine drift
    // (thermal, cache, background load) hits all of them equally, and
    // rotate which one goes first so none always runs on a cold heap.
    for (std::size_t i = 0; i < kModes.size(); ++i) {
      const ObsMode mode = kModes[(rep + i) % kModes.size()];
      // Only the first full-mode rep exports the sample trace.
      const std::string out =
          (mode == ObsMode::kFull && rep == 0) ? trace_out : "";
      const RunResult r =
          run_macro(mode, endpoints, files, sim_duration, seed, out);
      std::printf("rep %zu %-7s: %7.1f ms wall, %" PRIu64
                  " logical msgs, digest %016" PRIx64 "\n",
                  rep, mode_name(mode), r.run.wall_ms,
                  r.run.logical_messages, r.run.digest_xor);
      switch (mode) {
        case ObsMode::kOff:
          off_runs.push_back(r);
          break;
        case ObsMode::kMetrics:
          metrics_runs.push_back(r);
          break;
        case ObsMode::kFull:
          full_runs.push_back(r);
          break;
      }
    }
  }

  // Pure-observer check: instrumentation must not change what the cluster
  // computed.  A digest mismatch is a correctness bug, not a perf result.
  bool digests_match = true;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const KvMacroResult& off = off_runs[rep].run;
    digests_match &= off.digest_xor == metrics_runs[rep].run.digest_xor;
    digests_match &= off.digest_xor == full_runs[rep].run.digest_xor;
    digests_match &=
        off.logical_messages == full_runs[rep].run.logical_messages;
  }
  if (!digests_match) {
    std::fprintf(stderr,
                 "FAIL: digests/message counts diverge across obs modes\n");
  }

  const WallSpread off = wall_spread(off_runs);
  const WallSpread metrics = wall_spread(metrics_runs);
  const WallSpread full = wall_spread(full_runs);
  const double off_ms = off.median_ms;
  const double full_ms = full.median_ms;
  std::printf("medians: off %.1f ms [%.1f, %.1f], metrics %.1f ms [%.1f, "
              "%.1f] (x%.3f), full %.1f ms [%.1f, %.1f] (x%.3f)\n",
              off_ms, off.min_ms, off.max_ms, metrics.median_ms,
              metrics.min_ms, metrics.max_ms, metrics.median_ms / off_ms,
              full_ms, full.min_ms, full.max_ms, full_ms / off_ms);

  write_json(flags.get_string("json", "BENCH_obs_overhead.json"), smoke,
             endpoints, files, sim_secs, reps, off, metrics, full,
             full_runs.front(), digests_match);

  if (!digests_match) return 1;
  if (strict && full_ms / off_ms > max_overhead) {
    std::fprintf(stderr, "FAIL: full-mode overhead x%.3f exceeds x%.3f\n",
                 full_ms / off_ms, max_overhead);
    return 1;
  }
  return 0;
}
