/// \file adaptive_slo.cpp
/// \brief The headline reproduce-and-extend result (ROADMAP item 4):
///        adaptive consistency, driven by router escalations and
///        measured stale reads, vs every static level, scored against a
///        composite tenant SLO.
///
/// Three adversarial scenarios, generated by the shared open-loop
/// workload engine, each run once per mode (adaptive + the four static
/// levels) on a fresh same-seed deployment:
///
///  * flash_crowd       — a steady uniform read floor; at mid-run a crowd
///    tenant arrives that reads only the hot, heavily written file set.
///  * diurnal           — two uniform read tenants whose arrival rates
///    swap halves mid-run; writes stay gentle (below the controller's
///    hot-file threshold), so the right answer is to relax, not escalate.
///  * hotspot_migration — a Zipf-concentrated read+write hotspot that
///    jumps to the far half of the key space mid-run; the controller has
///    to escalate the new hot set and walk the old one back down.
///
/// flash_crowd and hotspot_migration run under scripted loss windows
/// (1.2 s of full replication loss every 3 s), so replicas genuinely lag
/// and the staleness clause has teeth.  The SLO is composite — BOTH
/// clauses must hold:
///
///    p99 staleness <= 2 versions   AND   p95 read latency <= --slo-p95-ms
///
/// Quantiles are computed *exactly* from the per-read samples the bench
/// collects at the session API (obs histograms are bucketed, fine for
/// operators, too coarse to referee an SLO verdict).  The static levels
/// each fail one clause under pressure: Strong/Quorum pay the
/// coordinator/fan-out round trip on every read (latency), Eventual
/// serves whatever the nearest replica has (staleness), static Bounded
/// burns a double round trip on every escalation and otherwise leans on
/// the coordinator (latency).  The adaptive mode declares bounded(2v)
/// and lets the ConsistencyController move per-file targets: hot
/// contended files to Strong, cold files to EventualNearest.
///
/// Emits BENCH_adaptive_slo.json (SLO attainment matrix + latency and
/// staleness columns + controller decision digest) for the CI perf
/// trajectory.  --strict reruns the first scenario's adaptive cell and
/// fails unless the controller's decision log and digest are
/// byte-identical — the cross-run determinism gate.
///
///   $ ./adaptive_slo [--endpoints 32] [--files 96] [--sim-secs 16]
///                    [--seed 2007] [--slo-p95-ms N] [--smoke]
///                    [--strict] [--json FILE]

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "bench/common.hpp"
#include "client/session.hpp"
#include "shard/sharded_cluster.hpp"
#include "util/flags.hpp"
#include "workload/engine.hpp"

namespace idea::bench {
namespace {

struct Setup {
  std::uint32_t endpoints = 32;
  std::uint32_t files = 96;
  double sim_secs = 16.0;
  std::uint64_t seed = 2007;
  double slo_p95_ms = 100.0;
  std::uint64_t slo_p99_staleness = 2;
};

/// One workload scenario: the tenant specs the engine runs (tenant 0 is
/// always the writer) and whether scripted loss windows are on.
struct Scenario {
  std::string name;
  std::string blurb;
  std::vector<workload::TenantSpec> tenants;
  bool loss = false;
};

struct Mode {
  std::string name;
  client::ConsistencyLevel level;
  bool adaptive = false;
};

struct CellResult {
  std::string scenario;
  std::string mode;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  double mean_latency_ms = 0.0;
  double p95_latency_ms = 0.0;
  double p99_staleness = 0.0;
  std::uint64_t max_staleness = 0;
  std::uint64_t stale_reads = 0;     ///< staleness > 0 at serve time.
  std::uint64_t escalated_reads = 0;
  bool attained = false;  ///< BOTH SLO clauses held.
  // Adaptive cells only.
  std::uint64_t adapted_reads = 0;
  adapt::ControllerStats ctl;
  std::uint64_t decision_digest = 0;
  std::vector<std::string> decision_log;
};

/// Exact quantile of a sample set: sort, index ceil(q*n)-1.  The obs
/// histograms are bucketed approximations; SLO verdicts need the real
/// order statistic.
template <typename T>
T exact_quantile(std::vector<T>& v, double q) {
  if (v.empty()) return T{};
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size());
  std::size_t idx = static_cast<std::size_t>(pos);
  if (static_cast<double>(idx) < pos) ++idx;
  if (idx > 0) --idx;
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}

Scenario flash_crowd(const Setup& s) {
  Scenario sc;
  sc.name = "flash_crowd";
  sc.blurb = "crowd tenant arrives mid-run, reads only the written hot set";
  const SimTime jump = sec_f(s.sim_secs / 4.0);
  workload::TenantSpec writer;
  writer.name = "writer";
  writer.keys = 8;
  writer.read_fraction = 0.0;
  writer.rate = steady_rate(80.0);  // 10 writes/s per hot file
  sc.tenants.push_back(writer);
  workload::TenantSpec floor;
  floor.name = "floor";
  floor.keys = s.files;
  floor.rate = steady_rate(85.0);
  floor.origins = all_origins(s.endpoints);
  sc.tenants.push_back(floor);
  workload::TenantSpec crowd;
  crowd.name = "crowd";
  crowd.keys = 8;  // the crowd piles onto exactly the written files
  crowd.rate = {{0, 0.0}, {jump, 20.0}};
  crowd.zipf = steady_zipf(0.9);
  crowd.origins = all_origins(s.endpoints);
  sc.tenants.push_back(crowd);
  sc.loss = true;
  return sc;
}

Scenario diurnal(const Setup& s) {
  Scenario sc;
  sc.name = "diurnal";
  sc.blurb = "two read tenants swap load halves mid-run; writes stay gentle";
  const SimTime half = sec_f(s.sim_secs / 2.0);
  workload::TenantSpec writer;
  writer.name = "writer";
  writer.keys = 8;
  writer.read_fraction = 0.0;
  writer.rate = steady_rate(16.0);  // 1 write/window/file: below hot_writes
  sc.tenants.push_back(writer);
  workload::TenantSpec east;
  east.name = "east";
  east.keys = s.files;
  east.rate = {{0, 100.0}, {half, 20.0}};
  east.origins = all_origins(s.endpoints);
  sc.tenants.push_back(east);
  workload::TenantSpec west;
  west.name = "west";
  west.keys = s.files;
  west.rate = {{0, 20.0}, {half, 100.0}};
  west.origins = all_origins(s.endpoints);
  sc.tenants.push_back(west);
  sc.loss = false;
  return sc;
}

Scenario hotspot_migration(const Setup& s) {
  Scenario sc;
  sc.name = "hotspot_migration";
  sc.blurb = "Zipf read+write hotspot jumps to the far half of the keys";
  const SimTime half = sec_f(s.sim_secs / 2.0);
  const std::uint32_t far = s.files / 2;
  workload::TenantSpec writer;
  writer.name = "writer";
  writer.keys = s.files;
  writer.read_fraction = 0.0;
  writer.rate = steady_rate(80.0);
  writer.zipf = steady_zipf(2.2);  // ~2/3 of writes land on the top rank
  writer.hotspot = {{0, 0}, {half, far}};
  sc.tenants.push_back(writer);
  workload::TenantSpec crowd;
  crowd.name = "crowd";
  crowd.keys = s.files;
  crowd.rate = steady_rate(30.0);
  crowd.zipf = steady_zipf(2.2);
  crowd.hotspot = {{0, 0}, {half, far}};
  crowd.origins = all_origins(s.endpoints);
  sc.tenants.push_back(crowd);
  workload::TenantSpec floor;
  floor.name = "floor";
  floor.keys = s.files;
  floor.rate = steady_rate(70.0);
  floor.origins = all_origins(s.endpoints);
  sc.tenants.push_back(floor);
  sc.loss = true;
  return sc;
}

CellResult run_cell(const Setup& s, const Scenario& sc, const Mode& mode) {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = s.endpoints;
  cfg.replication = 3;
  cfg.seed = s.seed;
  cfg.anti_entropy_period = msec(500);
  cfg.sync_sizes();
  cfg.observability.enabled = true;
  // Hints ride the 500 ms anti-entropy exchange: an 800 ms TTL keeps
  // them live between healthy rounds but lets them decay inside loss
  // windows, where they no longer describe the replicas.  A decayed
  // hint falls back to the optimistic lag-0 default, so static Bounded
  // picks blind, fails the serve-time bound check, and pays the
  // escalation round trip — per read.  The controller sees the same
  // evidence once and moves the file's target instead.
  cfg.freshness_hint_ttl = msec(800);
  cfg.adapt.enabled = mode.adaptive;
  auto cluster = std::make_unique<shard::ShardedCluster>(cfg);
  cluster->place(1, s.files);

  const adapt::Slo slo{s.slo_p99_staleness,
                       static_cast<SimDuration>(s.slo_p95_ms * 1000.0)};

  client::Client client(*cluster);
  client::ClientSession writer = client.session({.origin = 0});
  std::vector<client::ClientSession> readers;
  readers.reserve(s.endpoints);
  for (NodeId origin = 0; origin < s.endpoints; ++origin) {
    if (mode.adaptive) {
      // Adaptive sessions declare the middle of the matrix — bounded(2v)
      // — and hand the controller the keys.  One tenant, one SLO,
      // declared once.
      readers.push_back(client.session({.level = mode.level,
                                        .origin = origin,
                                        .adaptive = true,
                                        .tenant = 1,
                                        .declare_slo = origin == 0,
                                        .slo = slo}));
    } else {
      readers.push_back(client.session({.level = mode.level,
                                        .origin = origin}));
    }
  }

  const auto end_time = static_cast<SimTime>(s.sim_secs * 1'000'000.0);
  if (sc.loss) {
    add_loss_windows(cluster->transport(), sec(1), end_time, sec(3),
                     msec(1200));
  }

  CellResult r;
  r.scenario = sc.name;
  r.mode = mode.name;
  std::vector<SimDuration> latencies;
  std::vector<std::uint64_t> staleness;
  workload::OpenLoopEngine engine(
      cluster->sim(),
      workload::EngineOptions{msec(50), end_time, s.seed ^ 0xAD0B5ULL},
      sc.tenants, [&](const workload::Op& op) {
        const FileId f = 1 + static_cast<FileId>(op.key);
        if (!op.is_read) {
          writer.put(f, "w" + std::to_string(op.index), 1.0);
          ++r.writes;
          return;
        }
        const NodeId at = op.origin == kNoNode ? 0 : op.origin;
        const client::OpHandle<client::ReadResult> h = readers[at].read(f);
        if (!h.ok()) return;
        ++r.reads;
        latencies.push_back(h->latency);
        staleness.push_back(h->staleness_versions);
        if (h->staleness_versions > 0) ++r.stale_reads;
        if (h->escalated) ++r.escalated_reads;
      });
  engine.start();
  cluster->run_until(end_time);

  r.mean_latency_ms = 0.0;
  for (const SimDuration l : latencies) {
    r.mean_latency_ms += static_cast<double>(l);
  }
  if (!latencies.empty()) {
    r.mean_latency_ms /= static_cast<double>(latencies.size()) * 1000.0;
  }
  r.p95_latency_ms =
      static_cast<double>(exact_quantile(latencies, 0.95)) / 1000.0;
  r.p99_staleness =
      static_cast<double>(exact_quantile(staleness, 0.99));
  r.max_staleness = staleness.empty() ? 0 : staleness.back();
  r.attained = r.p99_staleness <=
                   static_cast<double>(s.slo_p99_staleness) &&
               r.p95_latency_ms <= s.slo_p95_ms;
  r.adapted_reads = cluster->router().stats().adapted_reads;
  if (mode.adaptive && cluster->controller() != nullptr) {
    r.ctl = cluster->controller()->stats();
    r.decision_digest = cluster->controller()->decision_digest();
    r.decision_log = cluster->controller()->decision_log();
  }
  return r;
}

void print_row(const CellResult& r, const Setup& s) {
  std::printf(
      "  %-10s %7" PRIu64 " reads  lat %6.1f ms mean / %6.1f ms p95 %s  "
      "p99 stale %4.0fv %s  (%4.1f%% stale, %" PRIu64 " esc)  %s",
      r.mode.c_str(), r.reads, r.mean_latency_ms, r.p95_latency_ms,
      r.p95_latency_ms <= s.slo_p95_ms ? "ok " : "MISS",
      r.p99_staleness,
      r.p99_staleness <= static_cast<double>(s.slo_p99_staleness) ? "ok "
                                                                  : "MISS",
      r.reads == 0 ? 0.0
                   : 100.0 * static_cast<double>(r.stale_reads) /
                         static_cast<double>(r.reads),
      r.escalated_reads, r.attained ? "SLO ATTAINED" : "slo missed");
  if (r.mode == "adaptive") {
    std::printf(
        "   [%" PRIu64 " adapted, esc=%" PRIu64 " down=%" PRIu64
        " relax=%" PRIu64 " rewarm=%" PRIu64 " renego=%" PRIu64
        " digest=%016" PRIx64 "]",
        r.adapted_reads, r.ctl.escalations, r.ctl.step_downs,
        r.ctl.relaxations, r.ctl.rewarms, r.ctl.renegotiations,
        r.decision_digest);
  }
  std::printf("\n");
}

void write_json(const std::string& path, bool smoke, const Setup& s,
                const std::vector<std::string>& scenario_names,
                const std::vector<std::vector<CellResult>>& table,
                bool adaptive_matches_statics,
                bool adaptive_beats_all_somewhere) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"adaptive_slo\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"endpoints\": %u,\n", s.endpoints);
  std::fprintf(f, "  \"files\": %u,\n", s.files);
  std::fprintf(f, "  \"sim_secs\": %.1f,\n", s.sim_secs);
  std::fprintf(f, "  \"slo\": {\"p99_staleness_versions\": %" PRIu64
                  ", \"p95_read_latency_ms\": %.1f},\n",
               s.slo_p99_staleness, s.slo_p95_ms);
  std::fprintf(f, "  \"scenarios\": {\n");
  for (std::size_t i = 0; i < table.size(); ++i) {
    std::fprintf(f, "    \"%s\": {\n", scenario_names[i].c_str());
    for (std::size_t j = 0; j < table[i].size(); ++j) {
      const CellResult& r = table[i][j];
      std::fprintf(f, "      \"%s\": {\n", r.mode.c_str());
      std::fprintf(f, "        \"reads\": %" PRIu64 ",\n", r.reads);
      std::fprintf(f, "        \"writes\": %" PRIu64 ",\n", r.writes);
      std::fprintf(f, "        \"mean_latency_ms\": %.2f,\n",
                   r.mean_latency_ms);
      std::fprintf(f, "        \"p95_latency_ms\": %.2f,\n",
                   r.p95_latency_ms);
      std::fprintf(f, "        \"p99_staleness_versions\": %.0f,\n",
                   r.p99_staleness);
      std::fprintf(f, "        \"max_staleness_versions\": %" PRIu64 ",\n",
                   r.max_staleness);
      std::fprintf(f, "        \"stale_read_fraction\": %.4f,\n",
                   r.reads == 0 ? 0.0
                                : static_cast<double>(r.stale_reads) /
                                      static_cast<double>(r.reads));
      std::fprintf(f, "        \"escalated_reads\": %" PRIu64 ",\n",
                   r.escalated_reads);
      std::fprintf(f, "        \"adapted_reads\": %" PRIu64 ",\n",
                   r.adapted_reads);
      if (r.mode == "adaptive") {
        std::fprintf(f,
                     "        \"controller\": {\"escalations\": %" PRIu64
                     ", \"step_downs\": %" PRIu64 ", \"relaxations\": %" PRIu64
                     ", \"rewarms\": %" PRIu64 ", \"renegotiations\": %" PRIu64
                     ", \"decisions\": %" PRIu64
                     ", \"digest\": \"%016" PRIx64 "\"},\n",
                     r.ctl.escalations, r.ctl.step_downs, r.ctl.relaxations,
                     r.ctl.rewarms, r.ctl.renegotiations, r.ctl.decisions,
                     r.decision_digest);
      }
      std::fprintf(f, "        \"slo_attained\": %s\n",
                   r.attained ? "true" : "false");
      std::fprintf(f, "      }%s\n", j + 1 < table[i].size() ? "," : "");
    }
    std::fprintf(f, "    }%s\n", i + 1 < table.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"acceptance\": {\n");
  std::fprintf(f, "    \"adaptive_attains_wherever_any_static_does\": %s,\n",
               adaptive_matches_statics ? "true" : "false");
  std::fprintf(f, "    \"adaptive_beats_every_static_somewhere\": %s\n",
               adaptive_beats_all_somewhere ? "true" : "false");
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"endpoints", "files", "json", "seed",
                                 "sim-secs", "slo-p95-ms", "slo-p99-staleness",
                                 "smoke", "strict"});
  const bool smoke = flags.get_bool("smoke", false);

  Setup s;
  s.endpoints =
      static_cast<std::uint32_t>(flags.get_int("endpoints", smoke ? 12 : 32));
  s.files =
      static_cast<std::uint32_t>(flags.get_int("files", smoke ? 48 : 96));
  s.sim_secs = flags.get_double("sim-secs", smoke ? 10.0 : 16.0);
  s.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));
  // The latency clause scales with the deployment: coordinator round
  // trips cost more across 32 endpoints than across the smoke deployment.
  s.slo_p95_ms = flags.get_double("slo-p95-ms", smoke ? 75.0 : 80.0);
  s.slo_p99_staleness = static_cast<std::uint64_t>(
      flags.get_int("slo-p99-staleness", 2));

  std::printf("adaptive SLO attainment: %u endpoints, %u files, k=3, "
              "%.0f sim-secs, seed %" PRIu64 "\n",
              s.endpoints, s.files, s.sim_secs, s.seed);
  std::printf("composite SLO: p99 staleness <= %" PRIu64
              "v AND p95 read latency <= %.0f ms\n",
              s.slo_p99_staleness, s.slo_p95_ms);

  const std::vector<Mode> modes = {
      {"adaptive", client::ConsistencyLevel::bounded_staleness(2), true},
      {"strong", client::ConsistencyLevel::strong(), false},
      {"bounded_2v", client::ConsistencyLevel::bounded_staleness(2), false},
      {"eventual", client::ConsistencyLevel::eventual_nearest(), false},
      {"quorum", client::ConsistencyLevel::quorum(), false},
  };
  const std::vector<Scenario> scenarios = {flash_crowd(s), diurnal(s),
                                           hotspot_migration(s)};

  std::vector<std::string> names;
  std::vector<std::vector<CellResult>> table;
  for (const Scenario& sc : scenarios) {
    std::printf("\nscenario %s (%s)%s\n", sc.name.c_str(), sc.blurb.c_str(),
                sc.loss ? "  [loss windows on]" : "");
    names.push_back(sc.name);
    std::vector<CellResult> row;
    for (const Mode& m : modes) {
      row.push_back(run_cell(s, sc, m));
      print_row(row.back(), s);
    }
    table.push_back(std::move(row));
  }

  // Acceptance: adaptive attains the composite SLO in every scenario where
  // some static level does, and there is a scenario where adaptive attains
  // it and no static level does.
  bool matches = true;
  bool beats = false;
  for (const std::vector<CellResult>& row : table) {
    const bool adaptive_ok = row[0].attained;
    bool any_static = false;
    for (std::size_t j = 1; j < row.size(); ++j) {
      any_static = any_static || row[j].attained;
    }
    if (any_static && !adaptive_ok) matches = false;
    if (adaptive_ok && !any_static) beats = true;
  }
  std::printf("\nacceptance: adaptive attains wherever any static does: %s; "
              "adaptive beats every static somewhere: %s\n",
              matches ? "yes" : "NO", beats ? "yes" : "NO");

  write_json(flags.get_string("json", "BENCH_adaptive_slo.json"), smoke, s,
             names, table, matches, beats);

  if (flags.get_bool("strict", false)) {
    // Determinism gate: rerun the first scenario's adaptive cell and
    // require a byte-identical controller decision history.
    const CellResult again = run_cell(s, scenarios[0], modes[0]);
    const CellResult& first = table[0][0];
    if (again.decision_digest != first.decision_digest ||
        again.decision_log != first.decision_log) {
      std::fprintf(stderr,
                   "STRICT FAILURE: adaptive rerun diverged "
                   "(digest %016" PRIx64 " vs %016" PRIx64
                   ", %zu vs %zu decisions)\n",
                   again.decision_digest, first.decision_digest,
                   again.decision_log.size(), first.decision_log.size());
      return 1;
    }
    std::printf("strict: adaptive decision history reproduced exactly "
                "(%zu decisions, digest %016" PRIx64 ")\n",
                first.decision_log.size(), first.decision_digest);
  }

  if (!smoke && (!matches || !beats)) {
    std::fprintf(stderr, "ACCEPTANCE FAILED (see matrix above)\n");
    return 1;
  }
  return 0;
}
