/// \file hotpath.cpp
/// \brief Hot-path throughput trajectory: simulator kernel, transport
///        send->deliver, version-vector merges, the sharded macro run, and
///        placement.
///
/// Every future PR is measured against this bench: it emits
/// BENCH_hotpath.json so the perf trajectory accumulates per PR (the CI
/// Release job uploads the file as an artifact; a --smoke run writes a
/// JSON only where --json names one).  Six sections:
///
///   1. sim_events  — schedule/cancel/periodic churn through the Simulator.
///   2. transport   — SimTransport message storm with realistic EVV payloads
///                    (each hop re-sends, so the cost of forwarding a
///                    payload across transport hops is on the clock).
///   3. vv_merge    — VersionVector merge + compare walks.
///   4. replica_store — one hot replica's per-message work (apply a peer's
///                    update, probe a peer's lag, answer a digest) at two
///                    log lengths, so a cost that grows with the log shows;
///                    and replica_read_after_write, an apply followed by a
///                    read of the replica's view.
///   5. macro       — the shard-scalability headline configuration
///                    (32 endpoints / 2000 files, k=3), reporting logical
///                    messages per wall-clock second plus the per-type
///                    message counts and replica digest used by the
///                    determinism regression test.
///   6. placement   — building the ring a 125- and a 1000-endpoint
///                    deployment start with, and replicas(f, 3) lookups
///                    over a 10,000-file keyset.  It runs last, so the
///                    memory its rings free cannot shape the macro's heap.
///
///   $ ./hotpath [--smoke] [--json BENCH_hotpath.json]
///               [--endpoints 32] [--files 2000] [--sim-secs 10]
///
/// The kBaseline* constants are the numbers this bench printed at the
/// pre-refactor seed (PR 1, string message types + std::any payloads +
/// unpooled simulator) on the reference build machine; speedups in the
/// JSON are relative to them.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "net/batching_transport.hpp"
#include "net/sim_transport.hpp"
#include "replica/store.hpp"
#include "shard/hash_ring.hpp"
#include "shard/sharded_cluster.hpp"
#include "sim/latency.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "vv/extended_vv.hpp"
#include "vv/version_vector.hpp"

namespace idea::bench {
namespace {

// Pre-refactor reference throughput: medians of 5 runs of this bench
// built against the seed commit (string message types, std::any payloads,
// unordered_set-cancellation simulator, std::map version vectors) on the
// single-core CI reference machine, Release -O2, interleaved with the
// post-refactor runs to cancel machine drift.  0 disables the speedup
// report for a metric.
constexpr double kBaselineSimEvents = 14.1e6;
constexpr double kBaselineTransportMsgs = 0.88e6;
constexpr double kBaselineBatchedTransportMsgs = 0.57e6;
constexpr double kBaselineVvMerges = 3.32e6;

// The replica_store section before the store kept a per-writer meta fold
// and a canonical-order index (every apply re-walked the whole log):
// medians of 5 Release runs on a 4-core x86-64 box, interleaved with the
// runs of the current store.  The section calls only APIs that store had.
constexpr double kBeforeFoldCoordinatorLog100 = 1.34e6;
constexpr double kBeforeFoldCoordinatorLog5000 = 32.3e3;
constexpr double kBeforeFoldRoundRobinLog100 = 1.30e6;
constexpr double kBeforeFoldRoundRobinLog5000 = 25.1e3;

// The replica_read_after_write row before the store's log became its read
// view (the first read after each write copied the whole log into a fresh
// snapshot): medians of 5 Release runs on a 4-core x86-64 box, interleaved
// with the runs of the current store.
constexpr double kBeforeViewLog100 = 0.945e6;
constexpr double kBeforeViewLog5000 = 19.4e3;

// ---------------------------------------------------------------------------
// 1. Simulator kernel: schedule / cancel / periodic churn.
// ---------------------------------------------------------------------------
struct SimEventsResult {
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double ops_per_sec = 0.0;
};

SimEventsResult bench_sim_events(std::uint64_t n) {
  sim::Simulator sim;
  Rng rng(4242);
  std::uint64_t fired = 0;

  const auto start = WallClock::now();
  std::uint64_t ops = 0;
  // A few periodic chains tick throughout the run.
  std::vector<sim::EventId> chains;
  for (int i = 0; i < 8; ++i) {
    chains.push_back(sim.schedule_periodic(msec(10 + i), [&] { ++fired; }));
    ++ops;
  }
  // Batches of one-shot events at pseudo-random offsets; a quarter of each
  // batch is cancelled before it can run.
  const std::uint64_t batch = 1024;
  std::vector<sim::EventId> cancellable;
  cancellable.reserve(batch / 4);
  for (std::uint64_t done = 0; done < n; done += batch) {
    cancellable.clear();
    for (std::uint64_t i = 0; i < batch; ++i) {
      const SimDuration delay = static_cast<SimDuration>(
          rng.uniform_int(0, static_cast<std::int64_t>(msec(50))));
      const sim::EventId id = sim.schedule_after(delay, [&] { ++fired; });
      ++ops;
      if ((i & 3u) == 0) cancellable.push_back(id);
    }
    for (const sim::EventId id : cancellable) {
      sim.cancel(id);
      ++ops;
    }
    sim.run_for(msec(25));
  }
  for (const sim::EventId id : chains) sim.cancel(id);
  sim.run_for(sec(1));

  SimEventsResult r;
  r.ops = ops + sim.events_processed();
  r.wall_s = secs_since(start);
  r.ops_per_sec = static_cast<double>(r.ops) / r.wall_s;
  std::printf("sim_events: %" PRIu64 " ops (%" PRIu64
              " fired) in %.3f s -> %.2fM ops/s\n",
              r.ops, fired, r.wall_s, r.ops_per_sec / 1e6);
  return r;
}

// ---------------------------------------------------------------------------
// 2. Transport storm: every delivery re-sends until its hop budget runs out,
//    so one logical "flow" crosses the send->schedule->deliver path many
//    times carrying a realistic detect-probe-sized EVV payload.
// ---------------------------------------------------------------------------
struct TransportResult {
  std::uint64_t messages = 0;
  double wall_s = 0.0;
  double msgs_per_sec = 0.0;
};

struct HopPayload {
  std::uint32_t hops_left = 0;
  vv::ExtendedVersionVector evv;
};

class HopHandler final : public net::MessageHandler {
 public:
  HopHandler(net::Transport& t, std::uint32_t nodes)
      : transport_(t), nodes_(nodes) {}

  void on_message(const net::Message& msg) override {
    ++received_;
    const auto& p = msg.payload.as<HopPayload>();
    if (p.hops_left == 0) return;
    net::Message next;
    next.from = msg.to;
    next.to = (msg.to + 1) % nodes_;
    next.file = msg.file;
    next.type = msg.type;
    next.wire_bytes = msg.wire_bytes;
    next.payload = HopPayload{p.hops_left - 1, p.evv};
    transport_.send(std::move(next));
  }

  [[nodiscard]] std::uint64_t received() const { return received_; }

 private:
  net::Transport& transport_;
  std::uint32_t nodes_;
  std::uint64_t received_ = 0;
};

const net::MsgType kProbeLike = net::MsgType::intern("bench.probe");

vv::ExtendedVersionVector make_probe_evv(std::uint32_t writers,
                                         std::uint32_t updates_each) {
  vv::ExtendedVersionVector evv;
  SimTime t = 0;
  for (std::uint32_t w = 0; w < writers; ++w) {
    for (std::uint32_t k = 0; k < updates_each; ++k) {
      t += msec(3);
      evv.record_update(w, t, static_cast<double>(w * k));
    }
  }
  return evv;
}

TransportResult bench_transport(std::uint64_t flows, std::uint32_t hops,
                                bool batching, std::uint32_t nodes,
                                std::uint32_t files) {
  sim::Simulator sim;
  // Constant latency on purpose: a latency model that burns CPU on
  // per-message jitter math (e.g. PlanetLab lognormal sampling) would
  // swamp the send->schedule->deliver path this section isolates.  The
  // node/file shape matches the macro deployment below.
  sim::ConstantLatency latency(msec(2));
  net::SimTransportOptions opts;
  opts.node_count = nodes;
  net::SimTransport wire(sim, latency, opts);
  net::BatchingTransport batch(wire, net::BatchingOptions{});
  net::Transport& edge =
      batching ? static_cast<net::Transport&>(batch) : wire;

  std::vector<std::unique_ptr<HopHandler>> handlers;
  for (std::uint32_t n = 0; n < nodes; ++n) {
    handlers.push_back(std::make_unique<HopHandler>(edge, nodes));
    edge.attach(n, handlers.back().get());
  }

  const vv::ExtendedVersionVector evv = make_probe_evv(8, 6);
  const auto start = WallClock::now();
  for (std::uint64_t f = 0; f < flows; ++f) {
    net::Message m;
    m.from = static_cast<NodeId>(f % nodes);
    m.to = static_cast<NodeId>((f + 1) % nodes);
    m.file = static_cast<FileId>(f % files + 1);
    m.type = kProbeLike;
    m.wire_bytes = evv.wire_bytes();
    m.payload = HopPayload{hops, evv};
    edge.send(std::move(m));
  }
  sim.run();

  TransportResult r;
  for (const auto& h : handlers) r.messages += h->received();
  r.wall_s = secs_since(start);
  r.msgs_per_sec = static_cast<double>(r.messages) / r.wall_s;
  std::printf("transport%s: %" PRIu64 " msgs in %.3f s -> %.2fM msgs/s\n",
              batching ? "+batching" : "", r.messages, r.wall_s,
              r.msgs_per_sec / 1e6);
  return r;
}

// ---------------------------------------------------------------------------
// 3. Version-vector merge/compare walks.
// ---------------------------------------------------------------------------
struct VvResult {
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double ops_per_sec = 0.0;
};

VvResult bench_vv(std::uint64_t iters) {
  Rng rng(99);
  const std::uint32_t writers = 24;
  vv::VersionVector a, b;
  for (std::uint32_t w = 0; w < writers; ++w) {
    // Overlapping but distinct writer sets, like detect/resolve exchanges.
    if (w % 3 != 0) a.set(w, rng.uniform_int(1, 50));
    if (w % 3 != 1) b.set(w, rng.uniform_int(1, 50));
  }
  const auto start = WallClock::now();
  std::uint64_t concurrent = 0;
  for (std::uint64_t i = 0; i < iters; ++i) {
    vv::VersionVector c = a;
    c.merge(b);
    if (vv::VersionVector::compare(a, b) == vv::Order::kConcurrent) {
      ++concurrent;
    }
    if (vv::VersionVector::compare(c, a) == vv::Order::kBefore) ++concurrent;
  }
  VvResult r;
  r.ops = iters * 3;  // one merge + two compares per iteration
  r.wall_s = secs_since(start);
  r.ops_per_sec = static_cast<double>(r.ops) / r.wall_s;
  std::printf("vv_merge: %" PRIu64 " ops in %.3f s -> %.2fM ops/s "
              "(checksum %" PRIu64 ")\n",
              r.ops, r.wall_s, r.ops_per_sec / 1e6, concurrent);
  return r;
}

// ---------------------------------------------------------------------------
// 4. Replica store: one op is what a hot file's replica does per message —
//    apply_remote of the next update of a 3-writer history, a lag probe
//    of a peer one update behind (the read router's), and the updates a
//    peer at this replica's own counts lacks (an anti-entropy digest
//    reply, which carries nothing).  Each store starts at `log_size`
//    updates and takes log_size / 10 ops, so the log stays within 10 % of
//    its size.
//
//    Two histories.  "coordinator" is the shape of a file replicated by
//    this system, where writes go through the acting coordinator:
//    writers 1 and 2 hold 8 updates each from a past failover, and the
//    coordinator (writer 0) writes the rest.  "round_robin" has the three
//    writers take turns; it is the meta fold's worst case, because an
//    append re-adds the ranges of the writers after its own (about a
//    third of the log per op on average).
// ---------------------------------------------------------------------------
struct StoreResult {
  std::uint32_t log_size = 0;
  std::uint64_t ops = 0;
  double wall_s = 0.0;
  double ops_per_sec = 0.0;
};

/// Update i of the history; stamps climb with i.
replica::Update history_update(std::uint64_t i, bool round_robin) {
  constexpr std::uint64_t kFailover = 8;
  replica::UpdateKey key;
  if (round_robin) {
    key = replica::UpdateKey{static_cast<NodeId>(i % 3), i / 3 + 1};
  } else if (i < 2 * kFailover) {
    key = replica::UpdateKey{static_cast<NodeId>(1 + i / kFailover),
                             i % kFailover + 1};
  } else {
    key = replica::UpdateKey{0, i - 2 * kFailover + 1};
  }
  return replica::Update{key, msec(static_cast<std::int64_t>(i)), "x", 1.0,
                         1, false};
}

/// The first `log_size` updates of the history, plus `per_store` ops
/// past them.
std::vector<replica::Update> store_history(std::uint32_t log_size,
                                           std::uint64_t per_store,
                                           bool round_robin) {
  std::vector<replica::Update> history;
  for (std::uint64_t i = 0; i < log_size + per_store; ++i) {
    history.push_back(history_update(i, round_robin));
  }
  return history;
}

StoreResult bench_store(std::uint32_t log_size, bool round_robin,
                        std::uint64_t min_ops) {
  const std::uint64_t per_store = std::max<std::uint64_t>(1, log_size / 10);
  const std::vector<replica::Update> history =
      store_history(log_size, per_store, round_robin);
  StoreResult r;
  r.log_size = log_size;
  std::uint64_t checksum = 0;
  while (r.ops < min_ops) {
    // Untimed fill, back to front: every update but each writer's first
    // parks in the reorder buffer, and the first drains the rest in one
    // apply, so the fill stays cheap however the store applies.
    replica::ReplicaStore store(3, 1);
    vv::ExtendedVersionVector peer;
    for (std::uint64_t i = log_size; i-- > 0;) store.apply_remote(history[i]);
    for (std::uint64_t i = 0; i < log_size; ++i) {
      peer.record_update(history[i].key.writer, history[i].stamp, 0.0);
    }
    vv::VersionVector counts = store.evv().counts();
    const auto start = WallClock::now();
    for (std::uint64_t i = log_size; i < log_size + per_store; ++i) {
      const replica::Update& u = history[i];
      store.apply_remote(u);
      counts.increment(u.key.writer);
      checksum += store.staleness_ahead_of(peer).versions;
      checksum += store.updates_ahead_of(counts).size();
      peer.record_update(u.key.writer, u.stamp, 0.0);
    }
    r.wall_s += secs_since(start);
    r.ops += per_store;
  }
  r.ops_per_sec = static_cast<double>(r.ops) / r.wall_s;
  std::printf("replica_store %s: log %u, %" PRIu64 " ops in %.3f s -> "
              "%.2fM ops/s (checksum %" PRIu64 ")\n",
              round_robin ? "round_robin" : "coordinator", log_size, r.ops,
              r.wall_s, r.ops_per_sec / 1e6, checksum);
  return r;
}

/// One op is what a replica does when a read follows each replicated
/// write: apply_remote of a coordinator-shaped file's next update, then
/// contents_snapshot(), the view a read is served from.  The reader keeps
/// only a size, so it drops its view before the next op.
StoreResult bench_read_after_write(std::uint32_t log_size,
                                   std::uint64_t min_ops) {
  const std::uint64_t per_store = std::max<std::uint64_t>(1, log_size / 10);
  const std::vector<replica::Update> history =
      store_history(log_size, per_store, /*round_robin=*/false);
  StoreResult r;
  r.log_size = log_size;
  std::uint64_t checksum = 0;
  while (r.ops < min_ops) {
    // Untimed fill in stamp order: every apply is a tail append, and
    // with the coordinator writing last it re-adds no later writer.
    replica::ReplicaStore store(3, 1);
    for (std::uint64_t i = 0; i < log_size; ++i) {
      store.apply_remote(history[i]);
    }
    const auto start = WallClock::now();
    for (std::uint64_t i = log_size; i < log_size + per_store; ++i) {
      store.apply_remote(history[i]);
      const auto view = store.contents_snapshot();
      checksum += view->size();
    }
    r.wall_s += secs_since(start);
    r.ops += per_store;
  }
  r.ops_per_sec = static_cast<double>(r.ops) / r.wall_s;
  std::printf("replica_read_after_write: log %u, %" PRIu64 " ops in %.3f s "
              "-> %.2fM ops/s (checksum %" PRIu64 ")\n",
              log_size, r.ops, r.wall_s, r.ops_per_sec / 1e6, checksum);
  return r;
}

// ---------------------------------------------------------------------------
// 5. Macro: the shard-scalability headline configuration.
// ---------------------------------------------------------------------------
struct MacroResult {
  std::uint32_t endpoints = 0;
  std::uint32_t files = 0;
  double sim_secs = 0.0;
  KvMacroResult run;
  double msgs_per_wall_sec = 0.0;
};

MacroResult bench_macro(std::uint32_t endpoints, std::uint32_t files,
                        SimDuration sim_duration, std::uint64_t seed) {
  MacroResult r;
  r.endpoints = endpoints;
  r.files = files;
  r.sim_secs = to_sec(sim_duration);
  r.run = run_kv_macro(macro_config(endpoints, seed), files, sim_duration);
  const KvMacroResult& run = r.run;
  r.msgs_per_wall_sec =
      static_cast<double>(run.logical_messages) / (run.wall_ms / 1000.0);
  std::printf("macro: %u endpoints / %u files, %" PRIu64 " logical msgs "
              "(%" PRIu64 " wire) in %.0f ms wall -> %.2fM msgs/wall-s, "
              "%.1f%% converged, digest %016" PRIx64 "\n",
              r.endpoints, r.files, run.logical_messages, run.wire_messages,
              run.wall_ms, r.msgs_per_wall_sec / 1e6, run.converged_pct,
              run.digest_xor);
  return r;
}

// ---------------------------------------------------------------------------
// 6. Placement: the ring a deployment builds when it starts, then the
//    replica-group lookup every file placement and migration makes.
// ---------------------------------------------------------------------------
struct PlacementResult {
  std::uint32_t endpoints = 0;
  std::uint64_t builds = 0;
  double build_ms = 0.0;  ///< Median wall time of one build.
  std::uint64_t lookups = 0;
  double lookups_per_sec = 0.0;
};

PlacementResult bench_placement(std::uint32_t endpoints,
                                std::uint64_t builds,
                                std::uint64_t min_lookups) {
  constexpr FileId kFiles = 10'000;
  PlacementResult r;
  r.endpoints = endpoints;
  r.builds = builds;
  std::uint64_t checksum = 0;
  std::vector<double> build_ms;
  for (std::uint64_t i = 0; i < builds; ++i) {
    const auto start = WallClock::now();
    const shard::HashRing ring(endpoints);
    build_ms.push_back(ms_since(start));
    checksum += ring.point_count();
  }
  std::sort(build_ms.begin(), build_ms.end());
  r.build_ms = build_ms[build_ms.size() / 2];

  const shard::HashRing ring(endpoints);
  const auto start = WallClock::now();
  while (r.lookups < min_lookups) {
    for (FileId f = 1; f <= kFiles; ++f) {
      checksum += ring.replicas(f, 3).back();
    }
    r.lookups += kFiles;
  }
  r.lookups_per_sec = static_cast<double>(r.lookups) / secs_since(start);
  std::printf("placement: %u endpoints, build %.3f ms (median of %" PRIu64
              "), replicas(f, 3) %.2fM lookups/s (checksum %" PRIu64 ")\n",
              endpoints, r.build_ms, builds, r.lookups_per_sec / 1e6,
              checksum);
  return r;
}

double speedup_vs(double now, double baseline) {
  return baseline > 0.0 ? now / baseline : 0.0;
}

void write_json(const std::string& path, bool smoke,
                const SimEventsResult& se, const TransportResult& tr,
                const TransportResult& trb, const VvResult& vvr,
                const std::vector<StoreResult>& store,  // see main()
                const std::vector<StoreResult>& read_after_write,
                const MacroResult& mc,
                const std::vector<PlacementResult>& placement) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"hotpath\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
  std::fprintf(f, "  \"metrics\": {\n");
  std::fprintf(f, "    \"sim_events_per_sec\": %.0f,\n", se.ops_per_sec);
  std::fprintf(f, "    \"transport_msgs_per_sec\": %.0f,\n", tr.msgs_per_sec);
  std::fprintf(f, "    \"batched_transport_msgs_per_sec\": %.0f,\n",
               trb.msgs_per_sec);
  std::fprintf(f, "    \"vv_merge_ops_per_sec\": %.0f,\n", vvr.ops_per_sec);
  std::fprintf(f, "    \"replica_store_ops_per_sec\": {"
               "\"coordinator\": {\"log_100\": %.0f, \"log_5000\": %.0f}, "
               "\"round_robin\": {\"log_100\": %.0f, \"log_5000\": %.0f}},\n",
               store[0].ops_per_sec, store[1].ops_per_sec,
               store[2].ops_per_sec, store[3].ops_per_sec);
  std::fprintf(f, "    \"replica_read_after_write_ops_per_sec\": "
               "{\"log_100\": %.0f, \"log_5000\": %.0f},\n",
               read_after_write[0].ops_per_sec,
               read_after_write[1].ops_per_sec);
  std::fprintf(f, "    \"macro\": {\n");
  std::fprintf(f, "      \"endpoints\": %u,\n", mc.endpoints);
  std::fprintf(f, "      \"files\": %u,\n", mc.files);
  std::fprintf(f, "      \"sim_secs\": %.1f,\n", mc.sim_secs);
  std::fprintf(f, "      \"wall_ms\": %.1f,\n", mc.run.wall_ms);
  std::fprintf(f, "      \"puts_applied\": %" PRIu64 ",\n",
               mc.run.puts_applied);
  std::fprintf(f, "      \"logical_messages\": %" PRIu64 ",\n",
               mc.run.logical_messages);
  std::fprintf(f, "      \"wire_messages\": %" PRIu64 ",\n",
               mc.run.wire_messages);
  std::fprintf(f, "      \"msgs_per_wall_sec\": %.0f,\n",
               mc.msgs_per_wall_sec);
  std::fprintf(f, "      \"converged_pct\": %.1f,\n", mc.run.converged_pct);
  std::fprintf(f, "      \"content_digest_xor\": \"%016" PRIx64 "\"\n",
               mc.run.digest_xor);
  std::fprintf(f, "    },\n");
  std::fprintf(f, "    \"placement\": {");
  for (std::size_t i = 0; i < placement.size(); ++i) {
    const PlacementResult& p = placement[i];
    std::fprintf(f, "%s\"endpoints_%u\": {\"builds\": %" PRIu64
                 ", \"build_ms\": %.3f, \"replicas_lookups_per_sec\": %.0f}",
                 i == 0 ? "" : ", ", p.endpoints, p.builds, p.build_ms,
                 p.lookups_per_sec);
  }
  std::fprintf(f, "}\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"baseline_pre_refactor\": {\n");
  std::fprintf(f, "    \"sim_events_per_sec\": %.0f,\n", kBaselineSimEvents);
  std::fprintf(f, "    \"transport_msgs_per_sec\": %.0f,\n",
               kBaselineTransportMsgs);
  std::fprintf(f, "    \"batched_transport_msgs_per_sec\": %.0f,\n",
               kBaselineBatchedTransportMsgs);
  std::fprintf(f, "    \"vv_merge_ops_per_sec\": %.0f\n", kBaselineVvMerges);
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"replica_store_before_fold\": {"
               "\"coordinator\": {\"log_100\": %.0f, \"log_5000\": %.0f}, "
               "\"round_robin\": {\"log_100\": %.0f, \"log_5000\": %.0f}},\n",
               kBeforeFoldCoordinatorLog100, kBeforeFoldCoordinatorLog5000,
               kBeforeFoldRoundRobinLog100, kBeforeFoldRoundRobinLog5000);
  std::fprintf(f, "  \"replica_read_after_write_before_view\": "
               "{\"log_100\": %.0f, \"log_5000\": %.0f},\n",
               kBeforeViewLog100, kBeforeViewLog5000);
  std::fprintf(f, "  \"speedup\": {\n");
  std::fprintf(f, "    \"sim_events\": %.2f,\n",
               speedup_vs(se.ops_per_sec, kBaselineSimEvents));
  std::fprintf(f, "    \"transport\": %.2f,\n",
               speedup_vs(tr.msgs_per_sec, kBaselineTransportMsgs));
  std::fprintf(f, "    \"batched_transport\": %.2f,\n",
               speedup_vs(trb.msgs_per_sec, kBaselineBatchedTransportMsgs));
  std::fprintf(f, "    \"vv_merge\": %.2f,\n",
               speedup_vs(vvr.ops_per_sec, kBaselineVvMerges));
  std::fprintf(f, "    \"replica_store_coordinator_log_100\": %.2f,\n",
               speedup_vs(store[0].ops_per_sec, kBeforeFoldCoordinatorLog100));
  std::fprintf(f, "    \"replica_store_coordinator_log_5000\": %.2f,\n",
               speedup_vs(store[1].ops_per_sec, kBeforeFoldCoordinatorLog5000));
  std::fprintf(f, "    \"replica_store_round_robin_log_100\": %.2f,\n",
               speedup_vs(store[2].ops_per_sec, kBeforeFoldRoundRobinLog100));
  std::fprintf(f, "    \"replica_store_round_robin_log_5000\": %.2f,\n",
               speedup_vs(store[3].ops_per_sec, kBeforeFoldRoundRobinLog5000));
  std::fprintf(f, "    \"replica_read_after_write_log_100\": %.2f,\n",
               speedup_vs(read_after_write[0].ops_per_sec, kBeforeViewLog100));
  std::fprintf(f, "    \"replica_read_after_write_log_5000\": %.2f\n",
               speedup_vs(read_after_write[1].ops_per_sec,
                          kBeforeViewLog5000));
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
                                 "sim-secs", "smoke"});
  const bool smoke = flags.get_bool("smoke", false);

  print_header(
      "Hot path: kernel, transport, version vectors, replica store, macro "
      "run, placement");

  const std::uint64_t n_events = smoke ? 200'000 : 2'000'000;
  const std::uint64_t n_flows = smoke ? 2'000 : 20'000;
  const std::uint32_t hops = 32;
  const std::uint64_t n_vv = smoke ? 200'000 : 2'000'000;
  const auto endpoints =
      static_cast<std::uint32_t>(flags.get_int("endpoints", 32));
  const auto files = static_cast<std::uint32_t>(flags.get_int("files", 2000));
  const SimDuration sim_secs =
      sec_f(flags.get_double("sim-secs", smoke ? 3.0 : 10.0));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 2007));

  const SimEventsResult se = bench_sim_events(n_events);
  const TransportResult tr =
      bench_transport(n_flows, hops, false, endpoints, files);
  const TransportResult trb =
      bench_transport(n_flows, hops, true, endpoints, files);
  const VvResult vvr = bench_vv(n_vv);
  // Coordinator at logs 100 and 5000, then round robin at both.
  std::vector<StoreResult> store;
  for (const bool round_robin : {false, true}) {
    store.push_back(bench_store(100, round_robin, smoke ? 20'000 : 200'000));
    store.push_back(bench_store(5000, round_robin, smoke ? 2'000 : 20'000));
  }
  const std::vector<StoreResult> read_after_write{
      bench_read_after_write(100, smoke ? 20'000 : 200'000),
      bench_read_after_write(5000, smoke ? 2'000 : 20'000)};
  const MacroResult mc = bench_macro(endpoints, files, sim_secs, seed);
  std::vector<PlacementResult> placement;
  for (const std::uint32_t ring_endpoints : {125u, 1000u}) {
    placement.push_back(bench_placement(ring_endpoints, smoke ? 5 : 41,
                                        smoke ? 200'000 : 2'000'000));
  }

  const std::string json = json_out(flags, smoke, "BENCH_hotpath.json");
  if (!json.empty()) {
    write_json(json, smoke, se, tr, trb, vvr, store, read_after_write, mc,
               placement);
  }
  return 0;
}
