/// \file membership_churn.cpp
/// \brief Cost and recovery profile of elastic membership + anti-entropy.
///
/// Three experiments on one deployment (default 16 endpoints, 800 files,
/// k=3, live kv workload):
///
///  1. Join: add an endpoint mid-workload; report how many files the ring
///     delta predicted would move vs how many actually migrated, the
///     state volume streamed, and how long until every group converges.
///  2. Leave: remove an endpoint; same accounting.
///  3. Heal: a scripted 100%-loss window mid-workload; report how many
///     anti-entropy periods the cluster needs to make every replica group
///     identical again, against the repair traffic it cost.
///
///   $ ./membership_churn [--endpoints 16] [--files 800] [--seed 2007]
///                        [--ae-ms 500]

#include <chrono>
#include <cstdio>

#include "apps/kvstore.hpp"
#include "bench/common.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::bench {
namespace {

struct Setup {
  std::uint32_t endpoints = 16;
  std::uint32_t files = 800;
  std::uint64_t seed = 2007;
  SimDuration ae_period = msec(500);
};

struct Deployment {
  std::unique_ptr<shard::ShardedCluster> cluster;
  std::unique_ptr<apps::KvStore> kv;
  std::unique_ptr<apps::KvWorkload> workload;
};

Deployment stand_up(const Setup& s) {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = s.endpoints;
  cfg.replication = 3;
  cfg.seed = s.seed;
  cfg.anti_entropy_period = s.ae_period;
  cfg.sync_sizes();

  Deployment d;
  d.cluster = std::make_unique<shard::ShardedCluster>(cfg);
  d.cluster->place(1, s.files);
  d.kv = std::make_unique<apps::KvStore>(
      *d.cluster,
      apps::KvStoreOptions{.buckets = s.files, .first_file = 1});
  apps::KvWorkloadParams wl;
  wl.clients = 2 * s.endpoints;
  wl.interval = msec(250);
  wl.duration = sec(12);
  wl.keyspace = 4 * s.files;
  d.workload = std::make_unique<apps::KvWorkload>(*d.kv, d.cluster->sim(),
                                                  wl, s.seed ^ 0xBEEF);
  d.workload->start();
  return d;
}

std::size_t diverged_files(shard::ShardedCluster& cluster,
                           std::uint32_t files) {
  std::size_t diverged = 0;
  for (FileId f = 1; f <= files; ++f) {
    if (!cluster.converged(f)) ++diverged;
  }
  return diverged;
}

/// Periods of `period` until no group diverges; -1 if `cap` is not enough.
int periods_to_heal(shard::ShardedCluster& cluster, std::uint32_t files,
                    SimDuration period, int cap) {
  for (int p = 0; p <= cap; ++p) {
    if (diverged_files(cluster, files) == 0) return p;
    cluster.run_for(period);
  }
  return -1;
}

void report_change(const char* label, const shard::MembershipChange& change,
                   double wall_ms) {
  std::printf(
      "  %-6s endpoint=%u  predicted=%zu  migrated=%zu  streamed=%zu "
      "updates in %zu msgs  (%.1f ms wall)\n",
      label, change.endpoint, change.rebalance.group_changed,
      change.files_migrated, change.state_updates, change.stream_messages,
      wall_ms);
}

void run(const Setup& s) {
  std::printf("# membership churn: %u endpoints, %u files, k=3, ae=%lld ms\n",
              s.endpoints, s.files,
              static_cast<long long>(s.ae_period / 1000));

  // --- 1. join ------------------------------------------------------
  {
    Deployment d = stand_up(s);
    d.cluster->run_until(sec(4));
    const auto t0 = std::chrono::steady_clock::now();
    const shard::MembershipChange joined = d.cluster->add_endpoint();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    report_change("join", joined, wall_ms);
    d.cluster->run_until(sec(13));
    const int heal =
        periods_to_heal(*d.cluster, s.files, s.ae_period, 20);
    std::printf("         groups whole again after %d ae-period(s); "
                "%llu puts applied\n",
                heal, static_cast<unsigned long long>(d.kv->puts()));
  }

  // --- 2. leave -----------------------------------------------------
  {
    Deployment d = stand_up(s);
    d.cluster->run_until(sec(4));
    const auto t0 = std::chrono::steady_clock::now();
    const shard::MembershipChange left =
        d.cluster->remove_endpoint(s.endpoints / 2);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    report_change("leave", left, wall_ms);
    d.cluster->run_until(sec(13));
    const int heal =
        periods_to_heal(*d.cluster, s.files, s.ae_period, 20);
    std::printf("         groups whole again after %d ae-period(s); "
                "%llu puts applied\n",
                heal, static_cast<unsigned long long>(d.kv->puts()));
  }

  // --- 3. loss window + anti-entropy heal ---------------------------
  {
    Deployment d = stand_up(s);
    d.cluster->transport().add_drop_window(sec(3), sec(5));
    d.cluster->run_until(sec(5));
    const std::size_t diverged_mid = diverged_files(*d.cluster, s.files);
    d.cluster->run_until(sec(13));
    const int heal =
        periods_to_heal(*d.cluster, s.files, s.ae_period, 40);
    std::uint64_t repair_msgs =
        d.cluster->batching()->counters().messages_of("shard.repair");
    std::uint64_t digest_msgs =
        d.cluster->batching()->counters().messages_of("shard.digest");
    std::printf(
        "  heal   2s full-loss window: %zu/%u groups diverged at close; "
        "whole after %d ae-period(s)\n",
        diverged_mid, s.files, heal);
    std::printf(
        "         faults dropped %llu msgs; repair traffic: %llu digests, "
        "%llu repairs\n",
        static_cast<unsigned long long>(
            d.cluster->transport().fault_dropped()),
        static_cast<unsigned long long>(digest_msgs),
        static_cast<unsigned long long>(repair_msgs));
  }
}

}  // namespace
}  // namespace idea::bench

int main(int argc, char** argv) {
  idea::Flags flags(argc, argv, {"ae-ms", "endpoints", "files", "seed"});
  idea::bench::Setup s;
  s.endpoints =
      static_cast<std::uint32_t>(flags.get_int("endpoints", s.endpoints));
  s.files = static_cast<std::uint32_t>(flags.get_int("files", s.files));
  s.seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));
  s.ae_period = idea::msec(flags.get_int("ae-ms", 500));
  idea::bench::run(s);
  return 0;
}
