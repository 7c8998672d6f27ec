/// \file membership_churn.cpp
/// \brief Cost and recovery profile of elastic membership + anti-entropy.
///
/// Three experiments on one deployment (default 16 endpoints, 800 files,
/// k=3, a kv write tenant at 8 ops/s per endpoint until the experiment's
/// event):
///
///  1. Join: add an endpoint at 4 s; report how many files the ring delta
///     predicted would move vs how many actually migrated, the state
///     volume streamed, and how long until every group converges.
///  2. Leave: remove an endpoint at 4 s; same accounting.
///  3. Heal: a scripted 100%-loss window from 3 s to 5 s; report how many
///     anti-entropy periods the cluster needs to make every replica group
///     identical again, against the repair traffic it cost.
///
/// Each heal time counts anti-entropy periods from the experiment's
/// event (the join, the leave, the window's close), where its writes
/// stop, so it measures that event's repair and nothing after it.  Exits
/// non-zero unless the join and the leave each migrate exactly the files
/// the ring delta predicted (rebalance.group_changed), and every
/// experiment is whole again within 2(k-1)+2 anti-entropy periods of its
/// event: k-1 rounds for a holder's rotation to reach a lagging peer,
/// twice, plus two periods of message latency.
///
///   $ ./membership_churn [--endpoints 16] [--files 800] [--seed 2007]
///                        [--ae-ms 500]

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

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

constexpr std::uint32_t kReplication = 3;
constexpr int kHealBound = 2 * (kReplication - 1) + 2;

struct Deployment {
  std::unique_ptr<shard::ShardedCluster> cluster;
  std::unique_ptr<apps::KvStore> kv;
  std::unique_ptr<workload::OpenLoopEngine> load;
};

/// A deployment whose workload writes from 0 until `writes_until`.
Deployment stand_up(const Setup& s, SimTime writes_until) {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = s.endpoints;
  cfg.replication = kReplication;
  cfg.seed = s.seed;
  cfg.anti_entropy_period = s.ae_period;
  cfg.sync_sizes();

  Deployment d;
  d.cluster = std::make_unique<shard::ShardedCluster>(cfg);
  d.cluster->place(1, s.files);
  d.kv = std::make_unique<apps::KvStore>(
      *d.cluster,
      apps::KvStoreOptions{.buckets = s.files, .first_file = 1});
  d.load = std::make_unique<workload::OpenLoopEngine>(
      d.cluster->sim(),
      workload::EngineOptions{0, writes_until, s.seed ^ 0xBEEF},
      std::vector<workload::TenantSpec>{
          kv_write_tenant(4 * s.files, 8.0 * s.endpoints, 0.0)},
      [&kv = *d.kv](const workload::Op& op) { kv.issue(op); });
  d.load->start();
  return d;
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

/// Runs the three experiments; returns each failed check, one line each.
std::vector<std::string> run(const Setup& s) {
  std::printf("# membership churn: %u endpoints, %u files, k=%u, ae=%lld ms\n",
              s.endpoints, s.files, kReplication,
              static_cast<long long>(s.ae_period / 1000));
  std::vector<std::string> failures;
  const auto check_change = [&failures](const char* label,
                                        const shard::MembershipChange& c) {
    if (c.files_migrated != c.rebalance.group_changed) {
      failures.push_back(std::string(label) + " migrated " +
                         std::to_string(c.files_migrated) +
                         " files, the ring delta predicted " +
                         std::to_string(c.rebalance.group_changed));
    }
  };
  const auto check_heal = [&failures](const char* label, int heal) {
    if (heal < 0 || heal > kHealBound) {
      failures.push_back(std::string(label) + " whole again " +
                         std::to_string(heal) +
                         " ae-period(s) after its event, bound " +
                         std::to_string(kHealBound));
    }
  };

  // --- 1. join ------------------------------------------------------
  {
    Deployment d = stand_up(s, sec(4));
    d.cluster->run_until(sec(4));
    const auto t0 = std::chrono::steady_clock::now();
    const shard::MembershipChange joined = d.cluster->add_endpoint();
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    report_change("join", joined, wall_ms);
    const int heal =
        periods_to_heal(*d.cluster, s.files, s.ae_period, 20);
    std::printf("         groups whole again %d ae-period(s) after the "
                "join; %llu puts applied\n",
                heal, static_cast<unsigned long long>(d.kv->puts()));
    check_change("join", joined);
    check_heal("join", heal);
  }

  // --- 2. leave -----------------------------------------------------
  {
    Deployment d = stand_up(s, sec(4));
    d.cluster->run_until(sec(4));
    const auto t0 = std::chrono::steady_clock::now();
    const shard::MembershipChange left =
        d.cluster->remove_endpoint(s.endpoints / 2);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    report_change("leave", left, wall_ms);
    const int heal =
        periods_to_heal(*d.cluster, s.files, s.ae_period, 20);
    std::printf("         groups whole again %d ae-period(s) after the "
                "leave; %llu puts applied\n",
                heal, static_cast<unsigned long long>(d.kv->puts()));
    check_change("leave", left);
    check_heal("leave", heal);
  }

  // --- 3. loss window + anti-entropy heal ---------------------------
  {
    Deployment d = stand_up(s, sec(5));
    d.cluster->transport().add_drop_window(sec(3), sec(5));
    d.cluster->run_until(sec(5));
    const std::size_t diverged_mid = diverged_files(*d.cluster, s.files);
    const int heal =
        periods_to_heal(*d.cluster, s.files, s.ae_period, 40);
    std::uint64_t repair_msgs =
        d.cluster->batching()->counters().messages_of("shard.repair");
    std::uint64_t digest_msgs =
        d.cluster->batching()->counters().messages_of("shard.digest");
    std::printf(
        "  heal   2s full-loss window: %zu/%u groups diverged at close; "
        "whole %d ae-period(s) after it\n",
        diverged_mid, s.files, heal);
    std::printf(
        "         faults dropped %llu msgs; repair traffic: %llu digests, "
        "%llu repairs\n",
        static_cast<unsigned long long>(
            d.cluster->transport().fault_dropped()),
        static_cast<unsigned long long>(digest_msgs),
        static_cast<unsigned long long>(repair_msgs));
    check_heal("heal", heal);
  }
  return failures;
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
  const std::vector<std::string> failures = idea::bench::run(s);
  for (const std::string& f : failures) {
    std::fprintf(stderr, "check failed: %s\n", f.c_str());
  }
  if (!failures.empty()) return 1;
  std::printf("check: join and leave migrated exactly the predicted files; "
              "every experiment whole within %d ae-periods of its event\n",
              idea::bench::kHealBound);
  return 0;
}
