/// \file read_policies.cpp
/// \brief The R×W tunable-consistency matrix: read latency vs observed
///        staleness across the four consistency levels crossed with the
///        write concerns — the trade-off surface the session API lets
///        applications pick a point on.
///
/// One deployment per matrix cell (32 endpoints, k=3, anti-entropy on,
/// live write stream), same seed: clients attached at every endpoint
/// read a Zipf-like read-heavy workload (each reader favors one hot
/// file) under the level being measured, while the writer runs under the
/// cell's WriteConcern.  Reported per cell: client-observed read latency
/// (mean/p95), observed staleness (versions behind the coordinator at
/// serve time), write-ack latency and failures, and — for the cached
/// cell — the session read-cache hit rate.  Everything is sourced from
/// the obs::MetricsRegistry the deployment records into (the per-level
/// session.* histograms), not from bench-local tallies, so the bench
/// exercises the same numbers operators would read.
///
/// Strong pays the full coordinator round trip at staleness 0; Eventual
/// serves the nearest replica at whatever staleness it has; Bounded sits
/// between (escalating when the bound would be violated); Quorum pays
/// the slowest of a majority fan-out for staleness 0 without pinning
/// load to the coordinator.  On the write side, w=majority trades ack
/// latency (a replication round trip instead of a one-way estimate) for
/// durability — and quorum_majority × w=majority is the R+W>N cell whose
/// reads survive any single stale replica.  The bounded_2v_cached cell
/// serves repeat reads from the session cache while provably inside the
/// declared age bound, with zero router traffic.  Emits
/// BENCH_read_policies.json for the CI perf trajectory.  --strict exits
/// non-zero when a cell breaks its level's staleness guarantee: a Strong
/// or Quorum read served any staleness, or a Bounded read served more
/// versions than its declared bound.
///
///   $ ./read_policies [--endpoints 32] [--files 256] [--sim-secs 12]
///                     [--seed 2007] [--smoke] [--json FILE] [--strict]

#include <algorithm>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "client/session.hpp"
#include "obs/metrics.hpp"
#include "obs/observability.hpp"
#include "shard/sharded_cluster.hpp"
#include "util/flags.hpp"
#include "workload/engine.hpp"

namespace idea::bench {
namespace {

struct Setup {
  std::uint32_t endpoints = 32;
  std::uint32_t files = 256;
  double sim_secs = 12.0;
  std::uint64_t seed = 2007;
};

/// One cell of the R×W matrix: a read level crossed with a write
/// concern (and optionally the session read cache).
struct Cell {
  std::string name;
  client::ConsistencyLevel level;
  client::WriteConcern concern;
  bool cache_reads = false;
};

struct LevelResult {
  std::string name;
  client::ConsistencyLevel level;
  std::uint64_t reads = 0;
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double mean_staleness = 0.0;
  std::uint64_t staleness_max = 0;
  std::uint64_t stale_reads = 0;  ///< Reads served with staleness > 0.
  std::uint64_t escalations = 0;
  /// Routing detail the registry doesn't key by file — tallied locally.
  std::uint64_t coordinator_served = 0;
  // Write side (per the cell's WriteConcern).
  std::uint32_t w = 1;
  std::uint64_t writes = 0;
  double mean_write_latency_ms = 0.0;
  double p95_write_latency_ms = 0.0;
  std::uint64_t wack_failed = 0;  ///< Concerns abandoned at give-up.
  // Session read cache (bounded_2v_cached cell only).
  std::uint64_t cache_hits = 0;
};

/// The per-level metric-name suffix the session layer records under
/// (session.read.latency_us.<suffix> / session.read.staleness.<suffix>).
const char* level_suffix(const client::ConsistencyLevel& level) {
  switch (level.level) {
    case client::Level::kStrong:
      return "strong";
    case client::Level::kBoundedStaleness:
      return "bounded";
    case client::Level::kEventualNearest:
      return "eventual";
    case client::Level::kQuorum:
      return "quorum";
  }
  return "?";
}

LevelResult run_level(const Setup& s, const Cell& cell) {
  const client::ConsistencyLevel& level = cell.level;
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = s.endpoints;
  cfg.replication = 3;
  cfg.seed = s.seed;
  cfg.anti_entropy_period = msec(500);
  cfg.sync_sizes();
  // Metrics on (tracing off): the numbers reported below come out of the
  // deployment's own registry, the way an operator would read them.
  cfg.observability.enabled = true;
  auto cluster = std::make_unique<shard::ShardedCluster>(cfg);
  cluster->place(1, s.files);

  client::Client client(*cluster);
  // The writer attaches at endpoint 0 so both ack flavors report a
  // client-observed latency (a kNoNode origin models co-location and
  // would zero out the w = 1 one-way estimate).
  client::ClientSession writer =
      client.session({.write_concern = cell.concern, .origin = 0});

  // Scripted loss windows (1.2 s of full loss every 3 s): the staleness
  // the read policies then either accept (Eventual), cap (Bounded) or
  // refuse (Strong/Quorum).  Fault injection is RNG-stream-preserving,
  // so every level replays the identical history.
  const auto end_time = static_cast<SimTime>(s.sim_secs * 1'000'000.0);
  add_loss_windows(cluster->transport(), sec(1), end_time, sec(3),
                   msec(1200));

  // The workload runs on the shared open-loop engine: one write tenant
  // cycling a hot set of files at a steady ~33 ops/s (hot files
  // accumulate multiple versions of staleness inside each loss window),
  // plus one read tenant per endpoint at ~3.3 ops/s whose Zipf(2.5) draw
  // concentrates ~3/4 of its reads on a per-endpoint favorite (hotspot
  // offset) — repeat favorite reads are what the session cache can serve
  // router-free while inside the declared bound.
  const std::uint32_t hot = std::min<std::uint32_t>(8, s.files);
  LevelResult result;
  result.name = cell.name;
  result.level = level;
  result.w = cell.concern.w;
  std::vector<client::ClientSession> readers;
  readers.reserve(s.endpoints);
  for (NodeId origin = 0; origin < s.endpoints; ++origin) {
    readers.push_back(client.session({.level = level,
                                      .origin = origin,
                                      .cache_reads = cell.cache_reads}));
  }

  std::vector<workload::TenantSpec> tenants;
  workload::TenantSpec writes;
  writes.name = "writer";
  writes.keys = hot;
  writes.read_fraction = 0.0;
  writes.rate = steady_rate(1000.0 / 30.0);
  tenants.push_back(writes);
  for (std::uint32_t i = 0; i < s.endpoints; ++i) {
    workload::TenantSpec reads;
    reads.name = "reader";
    reads.keys = s.files;
    reads.read_fraction = 1.0;
    reads.rate = steady_rate(1000.0 / 300.0);
    reads.zipf = steady_zipf(2.5);
    reads.hotspot = {{0, i % hot}};
    tenants.push_back(reads);
  }

  workload::OpenLoopEngine engine(
      cluster->sim(),
      workload::EngineOptions{msec(50), end_time, s.seed ^ 0x5EAD5ULL},
      std::move(tenants), [&](const workload::Op& op) {
        const FileId f = 1 + static_cast<FileId>(op.key);
        if (op.tenant == 0) {
          writer.put(f, "w" + std::to_string(op.index), 1.0);
          return;
        }
        client::ClientSession& reader = readers[op.tenant - 1];
        const client::OpHandle<client::ReadResult> h = reader.read(f);
        if (!h.ok()) return;
        if (h->served_by == cluster->coordinator_endpoint(f)) {
          ++result.coordinator_served;
        }
      });
  engine.start();

  cluster->run_until(end_time);

  // Latency/staleness come from the deployment's registry — the per-level
  // histograms and counters the session layer recorded while routing the
  // reads above (only the measured level's readers read in this cluster).
  const obs::MetricsRegistry& reg = cluster->obs()->cluster();
  const std::string suffix = level_suffix(level);
  const obs::Histogram* lat = reg.histogram(
      obs::MetricId::intern("session.read.latency_us." + suffix));
  const obs::Histogram* stale = reg.histogram(
      obs::MetricId::intern("session.read.staleness." + suffix));
  if (lat != nullptr) {
    result.reads = lat->count;
    result.mean_latency_ms = lat->mean() / 1000.0;
    result.p95_latency_ms = lat->quantile(0.95) / 1000.0;
  }
  if (stale != nullptr) {
    result.mean_staleness = stale->mean();
    result.staleness_max = stale->max;
  }
  result.stale_reads =
      reg.counter(obs::MetricId::intern("session.read.stale"));
  result.escalations =
      reg.counter(obs::MetricId::intern("session.read.escalated"));
  // Write side: under w = 1 the ack is a one-way distance estimate; under
  // w > 1 it is the measured replication round trip to the ack quorum.
  result.writes = reg.counter(obs::MetricId::intern("session.puts"));
  const obs::Histogram* wlat = reg.histogram(obs::MetricId::intern(
      cell.concern.w == 1 ? "session.put.latency_us"
                          : "session.put.wack_latency_us"));
  if (wlat != nullptr) {
    result.mean_write_latency_ms = wlat->mean() / 1000.0;
    result.p95_write_latency_ms = wlat->quantile(0.95) / 1000.0;
  }
  result.wack_failed =
      reg.counter(obs::MetricId::intern("session.put.wack_failed"));
  result.cache_hits =
      reg.counter(obs::MetricId::intern("session.read.cache_hits"));
  return result;
}

void print_row(LevelResult& r) {
  std::printf(
      "%-24s %7" PRIu64 " reads  lat %6.1f ms mean / %6.1f ms p95   "
      "staleness %5.2f mean / %3" PRIu64 " max (%4.1f%% stale)   "
      "%5.1f%% coord  %" PRIu64 " esc   "
      "w=%s ack %6.1f ms mean (%" PRIu64 " failed)",
      r.name.c_str(), r.reads, r.mean_latency_ms, r.p95_latency_ms,
      r.mean_staleness, r.staleness_max,
      r.reads == 0 ? 0.0
                   : 100.0 * static_cast<double>(r.stale_reads) /
                         static_cast<double>(r.reads),
      r.reads == 0 ? 0.0
                   : 100.0 * static_cast<double>(r.coordinator_served) /
                         static_cast<double>(r.reads),
      r.escalations, r.w == 0 ? "maj" : "1", r.mean_write_latency_ms,
      r.wack_failed);
  if (r.cache_hits > 0) {
    std::printf("   cache %4.1f%% hit",
                r.reads == 0 ? 0.0
                             : 100.0 * static_cast<double>(r.cache_hits) /
                                   static_cast<double>(r.reads));
  }
  std::printf("\n");
}

void write_json(const std::string& path, bool smoke, const Setup& s,
                std::vector<LevelResult>& results) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"read_policies\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"endpoints\": %u,\n", s.endpoints);
  std::fprintf(f, "  \"files\": %u,\n", s.files);
  std::fprintf(f, "  \"sim_secs\": %.1f,\n", s.sim_secs);
  std::fprintf(f, "  \"levels\": {\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    LevelResult& r = results[i];
    std::fprintf(f, "    \"%s\": {\n", r.name.c_str());
    std::fprintf(f, "      \"reads\": %" PRIu64 ",\n", r.reads);
    std::fprintf(f, "      \"mean_latency_ms\": %.2f,\n", r.mean_latency_ms);
    std::fprintf(f, "      \"p95_latency_ms\": %.2f,\n", r.p95_latency_ms);
    std::fprintf(f, "      \"mean_staleness_versions\": %.3f,\n",
                 r.mean_staleness);
    std::fprintf(f, "      \"max_staleness_versions\": %" PRIu64 ",\n",
                 r.staleness_max);
    std::fprintf(f, "      \"stale_read_fraction\": %.4f,\n",
                 r.reads == 0 ? 0.0
                              : static_cast<double>(r.stale_reads) /
                                    static_cast<double>(r.reads));
    std::fprintf(f, "      \"escalations\": %" PRIu64 ",\n", r.escalations);
    std::fprintf(f, "      \"coordinator_served_fraction\": %.4f,\n",
                 r.reads == 0 ? 0.0
                              : static_cast<double>(r.coordinator_served) /
                                    static_cast<double>(r.reads));
    std::fprintf(f, "      \"write_w\": %s,\n",
                 r.w == 0 ? "\"majority\"" : "1");
    std::fprintf(f, "      \"writes\": %" PRIu64 ",\n", r.writes);
    std::fprintf(f, "      \"mean_write_latency_ms\": %.2f,\n",
                 r.mean_write_latency_ms);
    std::fprintf(f, "      \"p95_write_latency_ms\": %.2f,\n",
                 r.p95_write_latency_ms);
    std::fprintf(f, "      \"wack_failed\": %" PRIu64 ",\n", r.wack_failed);
    std::fprintf(f, "      \"cache_hits\": %" PRIu64 ",\n", r.cache_hits);
    std::fprintf(f, "      \"cache_hit_rate\": %.4f\n",
                 r.reads == 0 ? 0.0
                              : static_cast<double>(r.cache_hits) /
                                    static_cast<double>(r.reads));
    std::fprintf(f, "    }%s\n", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

/// The most staleness `level` may serve, in versions: none for Strong and
/// Quorum, the declared bound for Bounded, unbounded for Eventual.
std::uint64_t staleness_cap(const client::ConsistencyLevel& level) {
  switch (level.level) {
    case client::Level::kStrong:
    case client::Level::kQuorum:
      return 0;
    case client::Level::kBoundedStaleness:
      return level.max_versions;
    case client::Level::kEventualNearest:
      break;
  }
  return UINT64_MAX;
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"endpoints", "files", "json", "seed",
                                 "sim-secs", "smoke", "strict"});
  const bool smoke = flags.get_bool("smoke", false);

  Setup s;
  s.endpoints =
      static_cast<std::uint32_t>(flags.get_int("endpoints", smoke ? 8 : 32));
  s.files =
      static_cast<std::uint32_t>(flags.get_int("files", smoke ? 64 : 256));
  s.sim_secs = flags.get_double("sim-secs", smoke ? 6.0 : 12.0);
  s.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));

  std::printf("read policies (R x W matrix): %u endpoints, %u files, k=3, "
              "%.0f sim-secs, seed %" PRIu64 "\n\n",
              s.endpoints, s.files, s.sim_secs, s.seed);

  const auto w1 = client::WriteConcern::one();
  const auto wmaj = client::WriteConcern::majority();
  // The w=1 rows keep their historical names (JSON key continuity for
  // the perf trajectory); the w=majority duals and the cached cell
  // extend the matrix.  bounded cells declare a 2-version bound; the
  // cached cell adds a 2 s age bound, the lease its hits are provable
  // under.
  const std::vector<Cell> cells = {
      {"strong", client::ConsistencyLevel::strong(), w1, false},
      {"strong_wmaj", client::ConsistencyLevel::strong(), wmaj, false},
      {"bounded_2v", client::ConsistencyLevel::bounded_staleness(2), w1,
       false},
      {"bounded_2v_wmaj", client::ConsistencyLevel::bounded_staleness(2),
       wmaj, false},
      {"bounded_2v_cached",
       client::ConsistencyLevel::bounded_staleness(2, sec(2)), w1, true},
      {"eventual_nearest", client::ConsistencyLevel::eventual_nearest(), w1,
       false},
      {"eventual_nearest_wmaj", client::ConsistencyLevel::eventual_nearest(),
       wmaj, false},
      {"quorum_majority", client::ConsistencyLevel::quorum(), w1, false},
      {"quorum_majority_wmaj", client::ConsistencyLevel::quorum(), wmaj,
       false},  // R + W > N: reads survive any single stale replica
  };
  std::vector<LevelResult> results;
  results.reserve(cells.size());
  for (const Cell& cell : cells) results.push_back(run_level(s, cell));
  for (LevelResult& r : results) print_row(r);

  write_json(flags.get_string("json", "BENCH_read_policies.json"), smoke, s,
             results);

  if (!flags.get_bool("strict", false)) return 0;
  int failed = 0;
  for (const LevelResult& r : results) {
    if (r.staleness_max <= staleness_cap(r.level)) continue;
    std::fprintf(stderr,
                 "strict: %s served %" PRIu64 " versions stale, cap %" PRIu64
                 "\n",
                 r.name.c_str(), r.staleness_max, staleness_cap(r.level));
    ++failed;
  }
  if (failed > 0) return 1;
  std::printf("strict: every cell within its level's staleness cap\n");
  return 0;
}
