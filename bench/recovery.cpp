/// \file recovery.cpp
/// \brief Durability cost vs recovery speed across checkpoint intervals —
///        the trade-off the crash-stop fault model exposes.
///
/// One deployment per cell, same seed and workload: a live kv write
/// stream (one open-loop tenant at 8 ops/s per endpoint), one endpoint
/// crash-stopped mid-workload and restarted two seconds later.  Each cell
/// reports what durability cost (checkpoint records/updates/bytes written
/// over the run) bought at recovery time: how much state came back from
/// the durable image vs how much had to be re-streamed over anti-entropy
/// (the checkpoint→crash gap), and how many repair messages the healing
/// took cluster-wide.
///
/// The no-checkpoint baseline (`none`) pays nothing up front and
/// re-streams the whole log; the `incremental` cells checkpoint every
/// period, persisting only the replicas that changed, and their gap grows
/// with the interval.  --strict exits non-zero unless every checkpointed
/// cell recovers as many files as the baseline, reloads some updates from
/// its checkpoints, and leaves a gap no larger than the baseline's.
/// Emits BENCH_recovery.json for the CI perf trajectory (a --smoke run
/// writes a JSON only where --json names one).
///
///   $ ./recovery [--endpoints 16] [--files 200] [--seed 2007] [--smoke]
///                [--strict] [--json FILE]

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "apps/kvstore.hpp"
#include "bench/common.hpp"
#include "shard/sharded_cluster.hpp"
#include "util/flags.hpp"

namespace idea::bench {
namespace {

struct Setup {
  std::uint32_t endpoints = 16;
  std::uint32_t files = 200;
  std::uint64_t seed = 2007;
};

struct Cell {
  std::string engine;
  std::int64_t period_ms = 0;  ///< 0 for the no-checkpoint baseline.
  // Durability cost over the whole run (cluster-wide).
  std::uint64_t ckpt_records = 0;
  std::uint64_t ckpt_updates = 0;
  std::uint64_t ckpt_bytes = 0;
  // What restart recovered, and from where.
  std::uint64_t files_recovered = 0;
  std::uint64_t from_checkpoint = 0;  ///< Updates reloaded durably.
  std::uint64_t reconciled = 0;       ///< Own-writer survivor reconcile.
  std::uint64_t gap = 0;              ///< Left for anti-entropy to heal.
  // What the healing cost on the wire.
  std::uint64_t repair_msgs = 0;
  std::uint64_t repair_updates = 0;
  int heal_periods = -1;
  std::int64_t downtime_ms = 0;
  std::uint64_t puts = 0;
};

constexpr SimDuration kAePeriod = msec(500);

Cell run_cell(const Setup& s, replica::CheckpointEngineKind engine,
              SimDuration period, const char* name) {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = s.endpoints;
  cfg.replication = 3;
  cfg.seed = s.seed;
  cfg.anti_entropy_period = kAePeriod;
  cfg.sync_sizes();
  cfg.checkpoint.engine = engine;
  cfg.checkpoint.period = period;

  auto cluster = std::make_unique<shard::ShardedCluster>(cfg);
  cluster->place(1, s.files);
  apps::KvStore kv(*cluster,
                   apps::KvStoreOptions{.buckets = s.files, .first_file = 1});
  workload::OpenLoopEngine load(
      cluster->sim(), workload::EngineOptions{0, sec(10), s.seed ^ 0xBEEF},
      {kv_write_tenant(4 * s.files, 8.0 * s.endpoints, 0.0)},
      [&kv](const workload::Op& op) { kv.issue(op); });
  load.start();

  // Crash at 7.3 s — deliberately NOT a multiple of the intervals, so
  // each interval leaves a different-sized checkpoint→crash gap — and
  // restart just before the write stream ends: the heal clock below
  // starts counting right as the workload quiesces, so heal periods
  // measure recovery, not leftover write-propagation noise.
  const NodeId victim = s.endpoints / 2;
  cluster->run_until(sec(7) + msec(300));
  cluster->crash_endpoint(victim);
  cluster->run_until(sec(9) + msec(750));
  // Logical repair messages: the edge transport counts every send, while
  // the wire counts a repair that shares an envelope as net.batch.
  const std::uint64_t repair_msgs_before =
      cluster->edge().counters().messages_of("shard.repair");
  const shard::RecoveryReport rec = cluster->restart_endpoint(victim);
  cluster->run_until(sec(10) + msec(250));

  Cell cell;
  cell.engine = name;
  cell.period_ms = engine == replica::CheckpointEngineKind::kNone
                       ? 0
                       : static_cast<std::int64_t>(period / 1000);
  const replica::DurableStorage& storage = cluster->durable_storage();
  cell.ckpt_records = storage.records_written();
  cell.ckpt_updates = storage.updates_written();
  cell.ckpt_bytes = storage.bytes_written();
  cell.files_recovered = rec.files_recovered;
  cell.from_checkpoint = rec.checkpoint_updates;
  cell.reconciled = rec.reconciled_updates;
  cell.gap = rec.gap_updates;
  cell.downtime_ms = static_cast<std::int64_t>(rec.downtime / 1000);

  // Heal: anti-entropy periods until every group is whole again.
  cell.heal_periods = periods_to_heal(*cluster, s.files, kAePeriod, 40);
  cell.repair_msgs = cluster->edge().counters().messages_of("shard.repair") -
                     repair_msgs_before;
  std::uint64_t repair_updates = 0;
  for (FileId f = 1; f <= s.files; ++f) {
    const std::vector<NodeId> group = cluster->group_of(f);
    for (std::uint32_t rank = 0; rank < group.size(); ++rank) {
      if (group[rank] != victim) continue;
      const shard::ReplicaSyncAgent* agent = cluster->sync_agent(f, rank);
      if (agent != nullptr) {
        repair_updates += agent->stats().repair_updates_applied;
      }
    }
  }
  cell.repair_updates = repair_updates;
  cell.puts = kv.puts();
  return cell;
}

void print_row(const Cell& c) {
  std::printf(
      "%-12s %5" PRId64 " ms   cost: %5" PRIu64 " records %7" PRIu64
      " updates %9" PRIu64 " B   restart: %4" PRIu64 " files, %5" PRIu64
      " durable + %3" PRIu64 " reconciled, gap %4" PRIu64
      "   heal: %2d periods, %5" PRIu64 " repair msgs\n",
      c.engine.c_str(), c.period_ms, c.ckpt_records, c.ckpt_updates,
      c.ckpt_bytes, c.files_recovered, c.from_checkpoint, c.reconciled,
      c.gap, c.heal_periods, c.repair_msgs);
}

void write_json(const std::string& path, bool smoke, const Setup& s,
                const std::vector<Cell>& cells) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"recovery\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"endpoints\": %u,\n", s.endpoints);
  std::fprintf(f, "  \"files\": %u,\n", s.files);
  std::fprintf(f, "  \"cells\": [\n");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::fprintf(f, "    {\"engine\": \"%s\", \"period_ms\": %" PRId64
                    ", \"ckpt_records\": %" PRIu64
                    ", \"ckpt_updates\": %" PRIu64
                    ", \"ckpt_bytes\": %" PRIu64 ",\n",
                 c.engine.c_str(), c.period_ms, c.ckpt_records,
                 c.ckpt_updates, c.ckpt_bytes);
    std::fprintf(f, "     \"files_recovered\": %" PRIu64
                    ", \"updates_from_checkpoint\": %" PRIu64
                    ", \"updates_reconciled\": %" PRIu64
                    ", \"gap_updates\": %" PRIu64 ",\n",
                 c.files_recovered, c.from_checkpoint, c.reconciled, c.gap);
    std::fprintf(f, "     \"heal_periods\": %d, \"recovered_after_ms\": %d"
                    ", \"downtime_ms\": %" PRId64
                    ", \"repair_messages\": %" PRIu64
                    ", \"victim_repair_updates\": %" PRIu64
                    ", \"puts\": %" PRIu64 "}%s\n",
                 c.heal_periods,
                 c.heal_periods < 0 ? -1 : c.heal_periods * 500,
                 c.downtime_ms, c.repair_msgs, c.repair_updates, c.puts,
                 i + 1 < cells.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::bench;
  const Flags flags(argc, argv, {"endpoints", "files", "json", "seed", "smoke",
                                 "strict"});
  const bool smoke = flags.get_bool("smoke", false);

  Setup s;
  s.endpoints =
      static_cast<std::uint32_t>(flags.get_int("endpoints", smoke ? 8 : 16));
  s.files =
      static_cast<std::uint32_t>(flags.get_int("files", smoke ? 64 : 200));
  s.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));

  std::printf("recovery: %u endpoints, %u files, k=3, crash @7.3s restart "
              "@9.75s, seed %" PRIu64 "\n\n",
              s.endpoints, s.files, s.seed);

  std::vector<Cell> cells;
  cells.push_back(run_cell(s, replica::CheckpointEngineKind::kNone, 0, "none"));
  const std::vector<SimDuration> periods =
      smoke ? std::vector<SimDuration>{msec(500), sec(2)}
            : std::vector<SimDuration>{msec(500), sec(1), sec(2), sec(4)};
  for (SimDuration period : periods) {
    cells.push_back(run_cell(s, replica::CheckpointEngineKind::kIncremental,
                             period, "incremental"));
  }
  for (const Cell& c : cells) print_row(c);

  const std::string json = json_out(flags, smoke, "BENCH_recovery.json");
  if (!json.empty()) write_json(json, smoke, s, cells);

  if (flags.get_bool("strict", false)) {
    const Cell& none = cells.front();
    bool ok = true;
    for (std::size_t i = 1; i < cells.size(); ++i) {
      const Cell& c = cells[i];
      if (c.files_recovered != none.files_recovered ||
          c.from_checkpoint == 0 || c.gap > none.gap) {
        std::fprintf(stderr,
                     "strict: %s %" PRId64 " ms recovered %" PRIu64
                     " files (none: %" PRIu64 "), %" PRIu64
                     " updates from checkpoints, gap %" PRIu64
                     " (none: %" PRIu64 ")\n",
                     c.engine.c_str(), c.period_ms, c.files_recovered,
                     none.files_recovered, c.from_checkpoint, c.gap,
                     none.gap);
        ok = false;
      }
    }
    if (!ok) return 1;
    std::printf("strict: every checkpointed cell recovers %" PRIu64
                " files, as none does, with a gap no larger than none's %"
                PRIu64 "\n",
                none.files_recovered, none.gap);
  }
  return 0;
}
