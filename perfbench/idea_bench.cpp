/// \file idea_bench.cpp
/// \brief One episode of one benchmark workload, reported as one JSON line.
///
///   $ idea_bench --workload kv_macro|rw_loss|churn_recovery|fleet_1000
///                --seed N [--trace 1] [--scale 0.25] [--threads 2] [--obs 1]
///
/// An episode builds a fresh deployment once, drives it open loop on the
/// sim clock for the workload's length plus a drain, and prints what a
/// user of the system would see (latency, staleness, failed ops, wire
/// cost), what the run cost (setup and measured wall time, peak RSS), and
/// a fingerprint of every deterministic outcome.  perfbench/run.py starts
/// one process per episode, so peak RSS, allocator state and the cold
/// set-up belong to that episode alone, and compares fingerprints across
/// episodes.
///
/// An episode runs its measured phase in slices of sim time and times a
/// fixed probe (SpeedProbe) after each slice, so the host's speed is
/// sampled at the moments the episode ran; run.py scales wall times by it.
///
/// `--seed` seeds the offered load only.  The deployment (latency-model
/// coordinates, per-endpoint seeds, transport jitter) is fixed, so a new
/// seed changes which keys are touched, from where and when, and nothing
/// else.
///
/// `--trace 1` adds the per-layer table.  Every layer is timed from
/// outside, around the calls the bench makes into its public functions:
///   * each endpoint's transport slot is re-attached to a tap that times
///     the endpoint's on_message, bucketed by message-type prefix;
///   * the simulator is driven one step() at a time, and each step is
///     classified as a delivery, an arrival of the open-loop engine, a
///     membership call, or a timer, which is attributed by the counter it
///     moved (messages sent by layer, checkpoint records, controller
///     ticks, wire envelopes);
///   * the bench times every session and membership call it makes.
/// None of this draws RNG or sends messages, so a traced episode must
/// reproduce the untraced fingerprint exactly.  The fleet runs its
/// segments on worker threads, so there the bench times run_for(epoch)
/// slices and keeps per-segment taps instead of stepping.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "client/session.hpp"
#include "runtime/fleet.hpp"
#include "shard/replica_sync.hpp"
#include "shard/sharded_cluster.hpp"
#include "util/flags.hpp"
#include "workload/engine.hpp"

namespace idea::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The deployment seed: fixed, so `--seed` moves the offered load only.
constexpr std::uint64_t kDeploymentSeed = 2007;
/// Simulated time after the last arrival for replication, anti-entropy and
/// pending write acks to settle before outcomes are judged.
constexpr SimDuration kDrain = sec(5);
/// The fleet's epoch; its horizon must be a whole number of epochs so the
/// traced run's run_for(epoch) slices are exactly run_until's epochs.
constexpr SimDuration kFleetEpoch = msec(50);
/// Sim time between two probe samples: a whole number of fleet epochs, so
/// every slice ends on an epoch edge.
constexpr SimDuration kProbeSlice = 5 * kFleetEpoch;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  /// Factor applied to every workload's full sim length.
  double scale = 0.25;
  std::uint32_t threads = 2;  ///< fleet_1000 worker threads.
  bool obs = true;            ///< rw_loss metrics registries.
};

// ---------------------------------------------------------------------
// Message layers
// ---------------------------------------------------------------------

enum Layer : std::size_t {
  kDetect,
  kOverlay,
  kReplicate,
  kAntiEntropy,
  kMigrate,
  kResolve,
  kOtherLayer,
  kLayerCount,
};

Layer layer_named(std::string_view name) {
  const auto starts = [name](std::string_view p) {
    return name.substr(0, p.size()) == p;
  };
  if (starts("detect.")) return kDetect;
  if (starts("gossip.") || starts("ransub.")) return kOverlay;
  if (starts("shard.replicate") || starts("shard.ack")) return kReplicate;
  if (starts("shard.digest") || starts("shard.repair")) return kAntiEntropy;
  if (starts("shard.migrate")) return kMigrate;
  if (starts("resolve.")) return kResolve;
  return kOtherLayer;
}

/// Per-thread cache: fleet segments deliver on worker threads.
Layer layer_of(net::MsgType type) {
  thread_local std::vector<std::int8_t> cache;
  if (type.id() >= cache.size()) cache.resize(type.id() + 1, -1);
  std::int8_t& slot = cache[type.id()];
  if (slot < 0) slot = static_cast<std::int8_t>(layer_named(type.name()));
  return static_cast<Layer>(slot);
}

using LayerCounts = std::array<std::uint64_t, kLayerCount>;

LayerCounts sent_by_layer(const net::MessageCounters& counters) {
  LayerCounts out{};
  const std::uint32_t types = net::MsgType::registered_count();
  for (std::uint32_t id = 1; id < types; ++id) {
    const auto type = net::MsgType::from_id(static_cast<std::uint16_t>(id));
    out[layer_of(type)] += counters.messages_of(type);
  }
  return out;
}

// ---------------------------------------------------------------------
// Trace state: wall time by layer, measured around the bench's own calls
// ---------------------------------------------------------------------

/// Quarter of the workload's sim time an instant falls in (0..3).
int quarter(SimTime now, SimDuration duration) {
  if (duration <= 0) return 0;
  return static_cast<int>(std::clamp<SimTime>(now * 4 / duration, 0, 3));
}

/// Wall time inside one kind of call, split by quarter of sim time so the
/// growth of per-call cost over a run is visible.
struct CallClock {
  std::array<double, 4> secs{};
  std::array<std::uint64_t, 4> calls{};

  void add(int q, double s) {
    secs[q] += s;
    ++calls[q];
  }
  void merge(const CallClock& o) {
    for (int q = 0; q < 4; ++q) {
      secs[q] += o.secs[q];
      calls[q] += o.calls[q];
    }
  }
  [[nodiscard]] double total_s() const {
    return secs[0] + secs[1] + secs[2] + secs[3];
  }
  [[nodiscard]] std::uint64_t total_calls() const {
    return calls[0] + calls[1] + calls[2] + calls[3];
  }
  [[nodiscard]] double us_per_call() const {
    const std::uint64_t n = total_calls();
    return n == 0 ? 0.0 : 1e6 * total_s() / static_cast<double>(n);
  }
  /// Mean cost per call in the last quarter over the first; 0 if either
  /// quarter saw no calls.
  [[nodiscard]] double growth() const {
    if (calls[0] == 0 || calls[3] == 0) return 0.0;
    return (secs[3] / static_cast<double>(calls[3])) /
           (secs[0] / static_cast<double>(calls[0]));
  }
};

struct Trace {
  // Deliveries, timed by the taps.
  std::array<double, kLayerCount> handler_s{};
  LayerCounts deliveries{};
  std::uint64_t tap_calls = 0;
  double handler_total_s = 0.0;
  CallClock anti_entropy;  ///< Digest and repair handlers by quarter.
  std::uint64_t repair_updates = 0;
  // Calls the bench makes itself.
  CallClock reads;
  CallClock puts;
  double membership_s = 0.0;
  std::uint64_t membership_calls = 0;
  // Step classes (single-cluster workloads only).
  bool issuer_ran = false;
  bool bench_call = false;
  double deliver_overhead_s = 0.0;
  double arrival_s = 0.0;
  std::array<double, kLayerCount> timer_s{};
  double checkpoint_s = 0.0;
  double adapt_s = 0.0;
  double flush_s = 0.0;
  double quiet_s = 0.0;
  double stepped_s = 0.0;  ///< Sum of every classified step.
  std::uint64_t sentinels = 0;

  void note_delivery(const net::Message& msg, double s, int q) {
    const Layer layer = layer_of(msg.type);
    handler_s[layer] += s;
    ++deliveries[layer];
    ++tap_calls;
    handler_total_s += s;
    if (layer == kAntiEntropy) {
      anti_entropy.add(q, s);
      if (msg.type == shard::ReplicaSyncAgent::kRepairType) {
        repair_updates +=
            msg.payload.as<shard::RepairPayload>().updates.size();
      }
    }
  }

  /// Fold in another fleet segment's taps and session calls.
  void merge(const Trace& o) {
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      handler_s[l] += o.handler_s[l];
      deliveries[l] += o.deliveries[l];
    }
    tap_calls += o.tap_calls;
    handler_total_s += o.handler_total_s;
    anti_entropy.merge(o.anti_entropy);
    repair_updates += o.repair_updates;
    reads.merge(o.reads);
    puts.merge(o.puts);
  }
};

/// Stands in for an endpoint on its transport slot and times the
/// endpoint's message handling.  Re-attaching draws no RNG.
class Tap final : public net::MessageHandler {
 public:
  Tap(Trace& trace, const sim::Simulator& sim, SimDuration duration)
      : trace_(trace), sim_(sim), duration_(duration) {}

  void bind(net::MessageHandler* target) { target_ = target; }

  void on_message(const net::Message& msg) override {
    const auto start = Clock::now();
    target_->on_message(msg);
    trace_.note_delivery(msg, seconds_since(start),
                         quarter(sim_.now(), duration_));
  }

 private:
  Trace& trace_;
  const sim::Simulator& sim_;
  SimDuration duration_;
  net::MessageHandler* target_ = nullptr;
};

/// One tap per endpoint id of a cluster.  install() must run again after
/// every crash, restart, add and remove: a (re)built endpoint attaches
/// itself to the transport, replacing the tap.
class Taps {
 public:
  Taps(Trace& trace, shard::ShardedCluster& cluster, SimDuration duration)
      : trace_(trace), cluster_(cluster), duration_(duration) {}

  void install() {
    for (const NodeId e : cluster_.endpoints()) {
      while (taps_.size() <= e) {
        taps_.push_back(
            std::make_unique<Tap>(trace_, cluster_.sim(), duration_));
      }
      taps_[e]->bind(&cluster_.service(e));
      cluster_.edge().attach(e, taps_[e].get());
    }
  }

 private:
  Trace& trace_;
  shard::ShardedCluster& cluster_;
  SimDuration duration_;
  std::vector<std::unique_ptr<Tap>> taps_;
};

// ---------------------------------------------------------------------
// Client side: what the sessions saw, and the consistency checks
// ---------------------------------------------------------------------

struct ClientLog {
  std::vector<SimDuration> read_latency;   ///< Successful reads.
  std::vector<SimDuration> write_latency;  ///< Successful puts.
  /// w > 1 puts, judged once the drain has resolved them.
  std::vector<client::OpHandle<client::WriteAck>> pending;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t failed = 0;
  std::uint64_t stale_reads = 0;
  /// Reads of non-adaptive sessions that broke their declared level: a
  /// Strong or Quorum read with staleness, a Bounded read past its bound.
  std::uint64_t level_violations = 0;
  std::uint64_t digest = 0;  ///< Order-sensitive over every outcome.

  void fold(std::uint64_t v) { digest = mix64(digest ^ mix64(v)); }

  void merge(const ClientLog& o) {
    read_latency.insert(read_latency.end(), o.read_latency.begin(),
                        o.read_latency.end());
    write_latency.insert(write_latency.end(), o.write_latency.begin(),
                         o.write_latency.end());
    reads += o.reads;
    writes += o.writes;
    failed += o.failed;
    stale_reads += o.stale_reads;
    level_violations += o.level_violations;
    fold(o.digest);
  }
};

/// A reader/writer attached at one endpoint.
struct Client {
  client::ClientSession session;
  client::ConsistencyLevel level;
  bool adaptive = false;
};

void record_read(ClientLog& log, const Client& c,
                 const client::OpHandle<client::ReadResult>& h) {
  ++log.reads;
  if (!h.ok()) {
    ++log.failed;
    log.fold(0xBADu);
    return;
  }
  const client::ReadResult& r = h.value();
  log.read_latency.push_back(r.latency);
  if (r.staleness_versions > 0) ++log.stale_reads;
  if (!c.adaptive) {
    const bool exact = c.level.level == client::Level::kStrong ||
                       c.level.level == client::Level::kQuorum;
    const bool bounded = c.level.level == client::Level::kBoundedStaleness;
    if ((exact && r.staleness_versions > 0) ||
        (bounded && r.staleness_versions > c.level.max_versions)) {
      ++log.level_violations;
    }
  }
  log.fold(static_cast<std::uint64_t>(r.latency) ^
           (r.staleness_versions << 40) ^
           (static_cast<std::uint64_t>(r.served_by) << 20) ^
           (r.updates->size() << 48));
}

void record_put(ClientLog& log, const client::OpHandle<client::WriteAck>& h) {
  if (!h.resolved()) {
    log.pending.push_back(h);
    return;
  }
  ++log.writes;
  if (!h.ok() || !h.value().w_satisfied) {
    ++log.failed;
    log.fold(0xBAD0u);
    return;
  }
  log.write_latency.push_back(h.latency());
  log.fold(static_cast<std::uint64_t>(h.latency()) ^
           (static_cast<std::uint64_t>(h.value().acks) << 40));
}

/// Judge the w > 1 puts after the drain, in issue order.
void settle_pending(ClientLog& log) {
  std::vector<client::OpHandle<client::WriteAck>> pending;
  pending.swap(log.pending);
  for (const auto& h : pending) {
    if (!h.resolved()) {
      ++log.writes;
      ++log.failed;
      log.fold(0xBAD1u);
      continue;
    }
    record_put(log, h);
  }
}

/// Issue one engine op through the client attached at its origin.  Odd
/// writes use w = majority when the workload alternates write concerns.
void issue(ClientLog& log, std::vector<Client>& clients, FileId file,
           const workload::Op& op, bool alternate_majority, Trace* trace,
           const sim::Simulator& sim, SimDuration duration) {
  Client& c = clients[op.origin == kNoNode ? 0 : op.origin];
  const auto start = Clock::now();
  if (op.is_read) {
    const auto h = c.session.read(file);
    if (trace != nullptr) {
      trace->reads.add(quarter(sim.now(), duration), seconds_since(start));
    }
    record_read(log, c, h);
    return;
  }
  const client::WriteConcern concern = alternate_majority && op.index % 2 == 1
                                           ? client::WriteConcern::majority()
                                           : client::WriteConcern::one();
  std::string content = std::to_string(op.index);
  const auto h = c.session.put(file, std::move(content), 1.0, concern);
  if (trace != nullptr) {
    trace->puts.add(quarter(sim.now(), duration), seconds_since(start));
  }
  record_put(log, h);
}

/// One client per origin endpoint; levels cycle by endpoint id, and with
/// `adaptive_half` every other block of levels.size() endpoints opts into
/// the adaptive controller (tenant 1).
std::vector<Client> open_clients(shard::ShardedCluster& cluster,
                                 std::uint32_t endpoints,
                                 const std::vector<client::ConsistencyLevel>&
                                     levels,
                                 bool adaptive_half) {
  client::Client front(cluster);
  std::vector<Client> clients;
  clients.reserve(endpoints);
  for (NodeId origin = 0; origin < endpoints; ++origin) {
    const client::ConsistencyLevel& level = levels[origin % levels.size()];
    client::SessionOptions options;
    options.level = level;
    options.origin = origin;
    options.adaptive = adaptive_half && (origin / levels.size()) % 2 == 1;
    options.tenant = options.adaptive ? 1 : 0;
    clients.push_back(
        Client{front.session(options), level, options.adaptive});
  }
  return clients;
}

std::vector<client::ConsistencyLevel> all_levels() {
  return {client::ConsistencyLevel::strong(),
          client::ConsistencyLevel::bounded_staleness(2),
          client::ConsistencyLevel::eventual_nearest(),
          client::ConsistencyLevel::quorum()};
}

std::vector<NodeId> origins(std::uint32_t n) {
  std::vector<NodeId> out(n);
  for (NodeId i = 0; i < n; ++i) out[i] = i;
  return out;
}

// ---------------------------------------------------------------------
// Episode result
// ---------------------------------------------------------------------

struct Result {
  double construct_s = 0.0;
  double place_s = 0.0;
  double wall_s = 0.0;  ///< Measured phase: first arrival to end of drain.
  double ref_per_wall = 0.0;  ///< SpeedProbe's, over the measured phase.
  double sim_s = 0.0;
  ClientLog log;
  std::uint64_t attempted = 0;
  std::uint64_t logical_msgs = 0;
  std::uint64_t wire_msgs = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t sim_events = 0;
  std::size_t files = 0;
  std::size_t converged = 0;
  std::uint64_t fingerprint = 0;
  std::vector<std::pair<std::string, double>> layers;

  void fold(std::uint64_t v) { fingerprint = mix64(fingerprint ^ mix64(v)); }
};

double percentile_ms(std::vector<SimDuration> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  auto idx = static_cast<std::size_t>(q * n);
  if (static_cast<double>(idx) < q * n) ++idx;
  idx = std::clamp<std::size_t>(idx, 1, v.size()) - 1;
  return to_ms(v[idx]);
}

/// Mean of the slowest `share` of the samples.  Sim-clock latencies take
/// the few discrete values of the latency model's round trips, so an
/// order statistic such as p99 often reads identically across seeds; the
/// tail mean summarizes the same tail and moves with every sample in it.
double tail_mean_ms(std::vector<SimDuration> v, double share) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(share * static_cast<double>(v.size())));
  double sum = 0.0;
  for (std::size_t i = v.size() - n; i < v.size(); ++i) {
    sum += to_ms(v[i]);
  }
  return sum / static_cast<double>(n);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Lower-interpolation quantile of wall-clock samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return v[static_cast<std::size_t>(q * static_cast<double>(v.size() - 1))];
}

void add_layer(Result& r, const char* name, double value) {
  r.layers.emplace_back(name, value);
}

/// The per-layer rows both deployment kinds share; `capacity_s` is the
/// wall time the fractions are shares of (threads x wall for the fleet).
void add_common_layers(Result& r, const Trace& t, double capacity_s,
                       std::uint64_t logical_sent_ae_digests) {
  const auto frac = [capacity_s](double s) { return ratio(s, capacity_s); };
  add_layer(r, "sim.quiet_frac", frac(t.quiet_s));
  add_layer(r, "net.deliver_overhead_frac", frac(t.deliver_overhead_s));
  add_layer(r, "net.flush_frac", frac(t.flush_s));
  add_layer(r, "client.read.calls", static_cast<double>(t.reads.total_calls()));
  add_layer(r, "client.read.us_per_call", t.reads.us_per_call());
  add_layer(r, "client.read.us_growth", t.reads.growth());
  add_layer(r, "client.put.calls", static_cast<double>(t.puts.total_calls()));
  add_layer(r, "client.put.us_per_call", t.puts.us_per_call());
  add_layer(r, "client.put.us_growth", t.puts.growth());
  add_layer(r, "workload.arrival_frac", frac(t.arrival_s));
  add_layer(r, "shard.replicate.deliveries",
            static_cast<double>(t.deliveries[kReplicate]));
  add_layer(r, "shard.replicate.us_per_call",
            1e6 * ratio(t.handler_s[kReplicate],
                        static_cast<double>(t.deliveries[kReplicate])));
  add_layer(r, "shard.ae.rounds", static_cast<double>(logical_sent_ae_digests));
  add_layer(r, "shard.ae.deliveries",
            static_cast<double>(t.deliveries[kAntiEntropy]));
  add_layer(r, "shard.ae.busy_frac",
            frac(t.handler_s[kAntiEntropy] + t.timer_s[kAntiEntropy]));
  add_layer(r, "shard.ae.us_growth", t.anti_entropy.growth());
  add_layer(r, "shard.ae.updates_per_round",
            ratio(static_cast<double>(t.repair_updates),
                  static_cast<double>(logical_sent_ae_digests)));
  add_layer(r, "shard.membership.calls",
            static_cast<double>(t.membership_calls));
  add_layer(r, "shard.membership.busy_frac", frac(t.membership_s));
  add_layer(r, "shard.migrate.deliveries",
            static_cast<double>(t.deliveries[kMigrate]));
  add_layer(r, "detect.deliveries", static_cast<double>(t.deliveries[kDetect]));
  add_layer(r, "detect.busy_frac",
            frac(t.handler_s[kDetect] + t.timer_s[kDetect]));
  add_layer(r, "overlay.deliveries",
            static_cast<double>(t.deliveries[kOverlay]));
  add_layer(r, "overlay.busy_frac",
            frac(t.handler_s[kOverlay] + t.timer_s[kOverlay]));
  add_layer(r, "resolve.deliveries",
            static_cast<double>(t.deliveries[kResolve]));
  add_layer(r, "replica.checkpoint.busy_frac", frac(t.checkpoint_s));
  add_layer(r, "adapt.busy_frac", frac(t.adapt_s));
}

/// Updates held across every live replica of every placed file.
std::uint64_t log_updates(shard::ShardedCluster& cluster, FileId first,
                          std::uint32_t files) {
  std::uint64_t total = 0;
  for (FileId f = first; f < first + files; ++f) {
    const std::vector<NodeId>* members = cluster.members_of(f);
    if (members == nullptr) continue;
    for (std::uint32_t rank = 0; rank < members->size(); ++rank) {
      if (core::IdeaNode* node = cluster.replica_at_rank(f, rank)) {
        total += node->store().update_count();
      }
    }
  }
  return total;
}

// ---------------------------------------------------------------------
// Host-speed probe
// ---------------------------------------------------------------------

/// A fixed piece of work with the simulator's access pattern and none of
/// its code: an event loop over a binary heap with type-erased callbacks,
/// small shared allocations and hash-map churn, over a few hundred KiB
/// that stay live for the whole episode.
class ProbeWork {
 public:
  ProbeWork() : state_(kSlots, 1), callbacks_(kEvents) {
    for (std::uint32_t i = 0; i < kEvents; ++i) {
      queue_.push({next() % 1'000'000, i});
      callbacks_[i] = [i](std::uint64_t v) { return v * 31 + i; };
    }
  }

  void chunk() {
    std::uint64_t sum = 0;
    for (std::uint32_t step = 0; step < kStepsPerChunk; ++step) {
      const Event e = queue_.top();
      queue_.pop();
      std::uint64_t r = next();
      for (std::uint32_t touch = 0; touch < 4; ++touch) {
        sum += callbacks_[e.id](state_[r % kSlots]++);
        r = next();
      }
      std::vector<std::uint32_t>& recent =
          index_[static_cast<std::uint32_t>(r >> 52)];
      recent.push_back(e.id);
      if (recent.size() > 8) recent.erase(recent.begin());
      const auto body =
          std::make_shared<std::vector<std::uint64_t>>(4 + (r & 15), r);
      sum += body->back();
      queue_.push({e.at + (r % 5000) + 1, e.id});
    }
    // Keep the work observable so it cannot be optimized away.
    sink_.fetch_add(sum, std::memory_order_relaxed);
  }

 private:
  static constexpr std::uint32_t kSlots = 1u << 13;
  static constexpr std::uint32_t kEvents = 1u << 12;
  static constexpr std::uint32_t kStepsPerChunk = 1600;
  struct Event {
    std::uint64_t at;
    std::uint32_t id;
    bool operator>(const Event& o) const { return at > o.at; }
  };

  std::uint64_t next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }

  std::vector<std::uint64_t> state_;
  std::vector<std::function<std::uint64_t(std::uint64_t)>> callbacks_;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> index_;
  std::uint64_t x_ = 0x9E3779B97F4A7C15ULL;
  static inline std::atomic<std::uint64_t> sink_{0};
};

/// Samples the host's speed while an episode runs.  The host this
/// benchmark was defined on changes speed by up to 2x within seconds
/// (other tenants), and CPU time moves with wall time, so neither alone
/// measures the code.  After every slice of the measured phase, each of
/// the episode's threads runs one ProbeWork chunk; the probe's helper
/// threads wait at a barrier in between, so they never compete with the
/// episode.  A slower host slows the chunks and the slices around them
/// alike, while a change to src/ moves only the slices.  A probe run
/// between episodes, in a process of its own, tracked them far less
/// closely.
class SpeedProbe {
 public:
  /// A chunk's mean time on the machine the benchmark was defined on (a
  /// 4-core VM, GCC 12, Release).  Wall seconds times kReferenceChunkS
  /// over the chunk's mean time here are *reference seconds*.
  static constexpr double kReferenceChunkS = 0.5e-3;

  explicit SpeedProbe(std::uint32_t threads)
      : sync_(static_cast<std::ptrdiff_t>(threads)),
        work_(threads),
        chunk_s_(threads, 0.0) {
    for (std::uint32_t t = 1; t < threads; ++t) {
      helpers_.emplace_back([this, t] {
        for (;;) {
          sync_.arrive_and_wait();
          if (stop_) return;
          run_chunk(t);
          sync_.arrive_and_wait();
        }
      });
    }
  }

  ~SpeedProbe() {
    stop_ = true;
    sync_.arrive_and_wait();
    for (std::thread& h : helpers_) h.join();
  }

  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  /// One chunk on every thread.  Only the chunks are timed: waking the
  /// helpers varied more than it tracked the episode.
  void sample() {
    const auto start = Clock::now();
    sync_.arrive_and_wait();
    run_chunk(0);
    sync_.arrive_and_wait();
    seconds_ += seconds_since(start);
    for (const double s : chunk_s_) chunk_total_s_ += s;
    chunks_ += chunk_s_.size();
  }

  /// Wall seconds spent in sample(), barriers included.
  [[nodiscard]] double seconds() const { return seconds_; }

  /// Reference seconds per wall second: kReferenceChunkS over the mean
  /// chunk time of every thread.
  [[nodiscard]] double ref_per_wall() const {
    return ratio(kReferenceChunkS * static_cast<double>(chunks_),
                 chunk_total_s_);
  }

 private:
  void run_chunk(std::uint32_t thread) {
    const auto start = Clock::now();
    work_[thread].chunk();
    chunk_s_[thread] = seconds_since(start);
  }

  std::barrier<> sync_;
  std::vector<ProbeWork> work_;  ///< One per thread.
  std::vector<double> chunk_s_;  ///< Each thread's last chunk time.
  std::vector<std::thread> helpers_;
  bool stop_ = false;  ///< Published to the helpers by the barrier.
  double seconds_ = 0.0;
  double chunk_total_s_ = 0.0;
  std::uint64_t chunks_ = 0;
};

/// Run the sim from `from` to `horizon` in kProbeSlice slices, sampling
/// `probe` after each; returns the wall seconds spent outside the probe.
template <typename RunUntil>
double run_probed(RunUntil run_until, SimTime from, SimTime horizon,
                  SpeedProbe& probe) {
  const auto start = Clock::now();
  for (SimTime t = from; t < horizon;) {
    t = std::min(t + kProbeSlice, horizon);
    run_until(t);
    probe.sample();
  }
  return seconds_since(start) - probe.seconds();
}

// ---------------------------------------------------------------------
// Single-cluster workloads: kv_macro, rw_loss, churn_recovery
// ---------------------------------------------------------------------

/// The 32-endpoint x k=3 IDEA deployment every single-cluster workload
/// starts from (the ROADMAP macro: batching on, hint-based control at
/// 0.85, detection every 2 s, maxima 100).
shard::ShardedClusterConfig macro_config() {
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = 32;
  cfg.replication = 3;
  cfg.batching = true;
  cfg.seed = kDeploymentSeed;
  cfg.sync_sizes();
  cfg.idea.maxima = vv::TripleMaxima{100, 100, 100};
  cfg.idea.controller.mode = core::AdaptiveMode::kHintBased;
  cfg.idea.controller.hint = 0.85;
  cfg.idea.detection_period = sec(2);
  return cfg;
}

struct ClusterWorkload {
  shard::ShardedClusterConfig config = macro_config();
  std::uint32_t files = 0;
  SimDuration duration = 0;  ///< Arrivals stop here; the drain follows.
  std::vector<workload::TenantSpec> tenants;
  std::vector<client::ConsistencyLevel> levels;
  bool adaptive_half = false;
  bool alternate_majority = false;
  bool loss_windows = false;
  bool churn = false;
};

/// `scale` of a full workload length, rounded to whole fleet epochs so
/// every horizon is an epoch edge.
SimDuration scaled(double full_secs, double scale) {
  const auto epochs = static_cast<SimDuration>(
      full_secs * scale * static_cast<double>(sec(1) / kFleetEpoch) + 0.5);
  return std::max<SimDuration>(1, epochs) * kFleetEpoch;
}

workload::TenantSpec tenant(std::uint32_t keys, double read_fraction,
                            double rate, double zipf) {
  workload::TenantSpec t;
  t.keys = keys;
  t.read_fraction = read_fraction;
  t.rate = {{0, rate}};
  t.zipf = {{0, zipf}};
  t.origins = origins(32);
  return t;
}

ClusterWorkload kv_macro(const Options& o) {
  ClusterWorkload w;
  w.files = 2000;
  w.duration = scaled(240, o.scale);
  // The old KvWorkload's 64 clients x 4 ops/s, as one open-loop tenant.
  w.tenants = {tenant(w.files, 0.5, 256.0, 0.9)};
  w.levels = all_levels();
  return w;
}

ClusterWorkload rw_loss(const Options& o) {
  ClusterWorkload w;
  w.files = 256;
  w.duration = scaled(150, o.scale);
  w.config.anti_entropy_period = msec(500);
  w.config.replication_resend_timeout = msec(300);
  // Six re-sends span 1.8 s: a w=majority put issued at the start of a
  // 1.2 s loss window still collects its acks after the window closes.
  w.config.replication_max_resends = 6;
  w.config.adapt.enabled = true;
  w.config.observability.enabled = o.obs;
  // Under loss the hint-based IDEA controller would start resolution
  // rounds, which block writes; consistency here is the adaptive
  // controller's job, so IDEA resolves on demand only.
  w.config.idea.controller.mode = core::AdaptiveMode::kOnDemand;
  w.config.idea.controller.hint = 0.0;
  const std::vector<workload::HotspotPhase> jump = {
      {0, 0}, {w.duration / 2, w.files / 2}};
  workload::TenantSpec readers = tenant(w.files, 1.0, 1800.0, 1.1);
  readers.hotspot = jump;
  workload::TenantSpec writers = tenant(w.files, 0.0, 200.0, 1.1);
  writers.hotspot = jump;
  w.tenants = {readers, writers};
  w.levels = all_levels();
  w.adaptive_half = true;
  w.alternate_majority = true;
  w.loss_windows = true;
  return w;
}

ClusterWorkload churn_recovery(const Options& o) {
  ClusterWorkload w;
  w.files = 1000;
  w.duration = scaled(180, o.scale);
  w.config.anti_entropy_period = msec(500);
  w.config.replication_resend_timeout = msec(300);
  w.config.checkpoint.engine = replica::CheckpointEngineKind::kIncremental;
  w.config.checkpoint.period = sec(1);
  w.tenants = {tenant(w.files, 0.7, 300.0, 0.9)};
  w.levels = all_levels();
  w.churn = true;
  return w;
}

/// Membership script: every 3 s one endpoint crashes and restarts 1.5 s
/// later (victims rotate over the original endpoints); every 15 s, 1 s
/// in, one endpoint joins, and 6 s later that joiner leaves again (so the
/// next join reuses its id under a new incarnation).
struct ChurnScript {
  shard::ShardedCluster& cluster;
  Trace* trace;
  Taps* taps;
  std::uint64_t migrate_updates = 0;
  std::uint64_t gap_updates = 0;
  NodeId joiner = kNoNode;

  void call(const std::function<void()>& fn) {
    const auto start = Clock::now();
    fn();
    if (trace != nullptr) {
      trace->membership_s += seconds_since(start);
      ++trace->membership_calls;
      trace->bench_call = true;
      taps->install();
    }
  }

  void schedule(SimDuration duration) {
    sim::Simulator& sim = cluster.sim();
    std::uint32_t k = 0;
    for (SimTime t = sec(3); t + msec(1500) < duration; t += sec(3), ++k) {
      const NodeId victim = (5 * k + 1) % 32;
      sim.schedule_at(t, [this, victim] {
        call([&] { (void)cluster.crash_endpoint(victim); });
      });
      sim.schedule_at(t + msec(1500), [this, victim] {
        call([&] {
          gap_updates += cluster.restart_endpoint(victim).gap_updates;
        });
      });
    }
    for (SimTime t = sec(16); t + sec(6) < duration; t += sec(15)) {
      sim.schedule_at(t, [this] {
        call([&] {
          const shard::MembershipChange c = cluster.add_endpoint();
          joiner = c.endpoint;
          migrate_updates += c.state_updates;
        });
      });
      sim.schedule_at(t + sec(6), [this] {
        call([&] {
          migrate_updates += cluster.remove_endpoint(joiner).state_updates;
        });
      });
    }
  }
};

/// Drive the simulator one event at a time up to `horizon`, classifying
/// each step (see the file comment).  A sentinel event marks the horizon;
/// run_until() then runs the same-instant events queued behind it (batch
/// flushes included) so the stepped run ends exactly where run_until ends.
void run_stepped(shard::ShardedCluster& cluster, SimTime horizon, Trace& t) {
  bool reached = false;
  cluster.sim().schedule_at(horizon, [&reached] { reached = true; });
  ++t.sentinels;
  const net::MessageCounters& logical = cluster.edge().counters();
  const net::MessageCounters& wire = cluster.wire_counters();
  LayerCounts sent = sent_by_layer(logical);
  std::uint64_t logical_total = logical.total_messages();
  while (!reached) {
    const std::uint64_t calls = t.tap_calls;
    const double handled = t.handler_total_s;
    const double in_session = t.reads.total_s() + t.puts.total_s();
    const std::uint64_t envelopes = wire.total_messages();
    const std::uint64_t records = cluster.durable_storage().records_written();
    const std::uint64_t ticks =
        cluster.controller() != nullptr ? cluster.controller()->stats().ticks
                                        : 0;
    t.issuer_ran = false;
    t.bench_call = false;
    const auto start = Clock::now();
    if (!cluster.sim().step()) break;
    const double s = seconds_since(start);
    t.stepped_s += s;
    const bool sent_any = logical.total_messages() != logical_total;
    LayerCounts now{};
    if (sent_any) {
      now = sent_by_layer(logical);
      logical_total = logical.total_messages();
    }
    if (t.tap_calls != calls) {
      t.deliver_overhead_s += s - (t.handler_total_s - handled);
    } else if (t.issuer_ran) {
      t.arrival_s += s - (t.reads.total_s() + t.puts.total_s() - in_session);
    } else if (t.bench_call) {
      // A membership call: its wall time is in t.membership_s already.
    } else if (sent_any) {
      std::size_t top = 0;
      for (std::size_t l = 1; l < kLayerCount; ++l) {
        if (now[l] - sent[l] > now[top] - sent[top]) top = l;
      }
      t.timer_s[top] += s;
    } else if (cluster.durable_storage().records_written() != records) {
      t.checkpoint_s += s;
    } else if (cluster.controller() != nullptr &&
               cluster.controller()->stats().ticks != ticks) {
      t.adapt_s += s;
    } else if (wire.total_messages() != envelopes) {
      t.flush_s += s;
    } else {
      t.quiet_s += s;
    }
    if (sent_any) sent = now;
  }
  cluster.run_until(horizon);
}

Result run_cluster(const Options& o, ClusterWorkload w) {
  Result r;
  const auto t0 = Clock::now();
  auto cluster = std::make_unique<shard::ShardedCluster>(w.config);
  r.construct_s = seconds_since(t0);
  const auto t1 = Clock::now();
  cluster->place(1, w.files);
  r.place_s = seconds_since(t1);

  std::vector<Client> clients =
      open_clients(*cluster, w.config.endpoints, w.levels, w.adaptive_half);
  if (w.loss_windows) {
    // 1.2 s of full loss every 3 s: pushes inside a window drop, so
    // replicas lag until acks re-send or anti-entropy repairs them.
    for (SimTime t = sec(1); t + msec(1200) < w.duration; t += sec(3)) {
      cluster->transport().add_drop_window(t, t + msec(1200));
    }
  }
  std::unique_ptr<Trace> trace;
  std::unique_ptr<Taps> taps;
  if (o.trace) {
    trace = std::make_unique<Trace>();
    taps = std::make_unique<Taps>(*trace, *cluster, w.duration);
  }
  ChurnScript churn{*cluster, trace.get(), taps.get()};
  if (w.churn) churn.schedule(w.duration);

  ClientLog& log = r.log;
  const sim::Simulator& sim = cluster->sim();
  workload::OpenLoopEngine engine(
      cluster->sim(),
      workload::EngineOptions{0, w.duration, mix64(o.seed ^ 0x1DEAB0ULL)},
      w.tenants, [&](const workload::Op& op) {
        if (trace != nullptr) trace->issuer_ran = true;
        issue(log, clients, 1 + static_cast<FileId>(op.key), op,
              w.alternate_majority, trace.get(), sim, w.duration);
      });
  engine.start();

  if (taps != nullptr) taps->install();
  const SimTime start_sim = cluster->sim().now();
  const SimTime horizon = w.duration + kDrain;
  SpeedProbe probe(1);
  r.wall_s = run_probed(
      [&](SimTime t) {
        if (trace != nullptr) {
          run_stepped(*cluster, t, *trace);
        } else {
          cluster->run_until(t);
        }
      },
      start_sim, horizon, probe);
  r.ref_per_wall = probe.ref_per_wall();
  r.sim_s = to_sec(horizon - start_sim);

  settle_pending(log);
  r.attempted = engine.total_ops();
  const net::MessageCounters& logical = cluster->edge().counters();
  r.logical_msgs = logical.total_messages();
  r.wire_msgs = cluster->wire_counters().total_messages();
  r.wire_bytes = cluster->wire_counters().total_bytes();
  r.sim_events = cluster->sim().events_processed() -
                 (trace != nullptr ? trace->sentinels : 0);
  r.files = w.files;
  for (FileId f = 1; f <= w.files; ++f) {
    if (cluster->converged(f)) ++r.converged;
    if (core::IdeaNode* coord = cluster->replica_at_rank(f, 0)) {
      r.fold(coord->store().content_digest() ^ f);
    }
  }
  for (const auto& [type, count] : logical.by_type()) {
    r.fold(std::hash<std::string>{}(type) ^ count);
  }
  r.fold(r.wire_msgs);
  r.fold(r.wire_bytes);
  r.fold(r.sim_events);
  r.fold(log.digest);
  r.fold(churn.migrate_updates ^ (churn.gap_updates << 32));
  if (cluster->controller() != nullptr) {
    r.fold(cluster->controller()->decision_digest());
  }

  if (trace != nullptr) {
    const Trace& t = *trace;
    add_layer(r, "sim.events", static_cast<double>(r.sim_events));
    add_common_layers(
        r, t, r.wall_s,
        logical.messages_of(shard::ReplicaSyncAgent::kDigestType));
    add_layer(r, "shard.migrate.updates",
              static_cast<double>(churn.migrate_updates));
    add_layer(r, "shard.recovery.gap_updates",
              static_cast<double>(churn.gap_updates));
    add_layer(r, "replica.log_updates",
              static_cast<double>(log_updates(*cluster, 1, w.files)));
    add_layer(r, "replica.checkpoint.bytes",
              static_cast<double>(cluster->durable_storage().bytes_written()));
    const adapt::ConsistencyController* ctl = cluster->controller();
    add_layer(r, "adapt.ticks",
              ctl != nullptr ? static_cast<double>(ctl->stats().ticks) : 0.0);
    add_layer(r, "adapt.decisions",
              ctl != nullptr ? static_cast<double>(ctl->stats().decisions)
                             : 0.0);
    for (const char* name :
         {"runtime.epochs", "runtime.epoch_p99_over_mean", "runtime.steals",
          "runtime.conveyor_msgs", "runtime.conveyor_packets",
          "runtime.lane_stalls"}) {
      add_layer(r, name, 0.0);
    }
    add_layer(r, "trace.attributed_frac", ratio(t.stepped_s, r.wall_s));
  }
  return r;
}

// ---------------------------------------------------------------------
// fleet_1000: the multicore runtime
// ---------------------------------------------------------------------

/// Bench-side client traffic of one fleet segment: an open-loop engine
/// driving ClientSessions attached at the segment's endpoints, so the
/// fleet reports client latency and staleness like every other workload.
/// Everything here is touched only by the worker running the segment.
struct SegmentLoad {
  std::vector<Client> clients;
  std::vector<FileId> files;
  ClientLog log;
  Trace trace;
  std::unique_ptr<workload::OpenLoopEngine> engine;
  std::vector<std::unique_ptr<Tap>> taps;
};

Result run_fleet(const Options& o) {
  constexpr std::uint32_t kEndpoints = 1000;
  constexpr std::uint32_t kFiles = 4000;
  const SimDuration duration = scaled(90, o.scale);

  Result r;
  shard::ShardedClusterConfig cfg;
  cfg.endpoints = kEndpoints;
  cfg.replication = 3;
  cfg.seed = kDeploymentSeed;
  cfg.idea.maxima = vv::TripleMaxima{100, 100, 100};
  cfg.idea.detection_period = sec(2);
  cfg.runtime.threads = o.threads;
  cfg.runtime.segments = 8;
  cfg.runtime.epoch = kFleetEpoch;
  cfg.sync_sizes();

  const auto t0 = Clock::now();
  runtime::ShardedFleet fleet(cfg);
  r.construct_s = seconds_since(t0);
  const auto t1 = Clock::now();
  fleet.place(1, kFiles);
  r.place_s = seconds_since(t1);

  fleet.set_workload(runtime::FleetWorkloadParams{
      .ops_per_endpoint_per_sec = 4.0,
      .read_fraction = 0.5,
      .cross_segment_fraction = 0.25,
      .duration = duration});

  const std::uint32_t segments = fleet.segments();
  std::vector<std::unique_ptr<SegmentLoad>> loads;
  for (std::uint32_t s = 0; s < segments; ++s) {
    auto load = std::make_unique<SegmentLoad>();
    shard::ShardedCluster& seg = fleet.segment(s);
    const std::uint32_t n = fleet.segment_endpoints(s);
    load->clients = open_clients(seg, n, all_levels(), false);
    for (FileId f = 1; f <= kFiles; ++f) {
      if (fleet.segment_of_file(f) == s) load->files.push_back(f);
    }
    workload::TenantSpec spec;
    spec.keys = static_cast<std::uint32_t>(load->files.size());
    spec.read_fraction = 0.5;
    spec.rate = {{0, 0.5 * n}};
    spec.zipf = {{0, 0.9}};
    spec.origins = origins(n);
    SegmentLoad* l = load.get();
    const sim::Simulator* sim = &seg.sim();
    const bool traced = o.trace;
    load->engine = std::make_unique<workload::OpenLoopEngine>(
        seg.sim(),
        workload::EngineOptions{0, duration, mix64(o.seed ^ (0xF1EE7ULL + s))},
        std::vector<workload::TenantSpec>{spec},
        [l, sim, traced, duration](const workload::Op& op) {
          issue(l->log, l->clients, l->files[op.key], op, false,
                traced ? &l->trace : nullptr, *sim, duration);
        });
    load->engine->start();
    if (o.trace) {
      for (const NodeId e : seg.endpoints()) {
        load->taps.push_back(
            std::make_unique<Tap>(load->trace, seg.sim(), duration));
        load->taps.back()->bind(&seg.service(e));
        seg.edge().attach(e, load->taps.back().get());
      }
    }
    loads.push_back(std::move(load));
  }

  const SimTime horizon = duration + kDrain;
  std::vector<double> epoch_s;
  SpeedProbe probe(o.threads);
  r.wall_s = run_probed(
      [&](SimTime t) {
        if (!o.trace) {
          fleet.run_until(t);
          return;
        }
        while (fleet.now() < t) {
          const auto start = Clock::now();
          fleet.run_for(kFleetEpoch);
          epoch_s.push_back(seconds_since(start));
        }
      },
      0, horizon, probe);
  r.ref_per_wall = probe.ref_per_wall();
  r.sim_s = to_sec(horizon);

  Trace merged;
  std::uint64_t fleet_sim_events = 0;
  for (std::uint32_t s = 0; s < segments; ++s) {
    SegmentLoad& l = *loads[s];
    settle_pending(l.log);
    r.log.merge(l.log);
    r.attempted += l.engine->total_ops();
    merged.merge(l.trace);
    shard::ShardedCluster& seg = fleet.segment(s);
    r.logical_msgs += seg.edge().counters().total_messages();
    r.wire_msgs += seg.wire_counters().total_messages();
    r.wire_bytes += seg.wire_counters().total_bytes();
    fleet_sim_events += seg.sim().events_processed();
  }
  const runtime::FleetStats stats = fleet.stats();
  // The fleet's own generator: local ops plus remote ops, and a remote op
  // that never got its reply back counts as failed.
  r.attempted += stats.local_ops + stats.remote_ops;
  r.log.failed += stats.remote_ops - stats.replies;
  r.sim_events = fleet_sim_events;
  r.files = kFiles;
  r.converged = fleet.converged_files();
  r.fold(stats.op_digest);
  r.fold(stats.local_ops ^ (stats.remote_ops << 32));
  for (const auto& [endpoint, digest] : fleet.endpoint_digests()) {
    r.fold(digest ^ endpoint);
  }
  for (const auto& [type, count] : fleet.message_counts()) {
    r.fold(std::hash<std::string>{}(type) ^ count);
  }
  r.fold(r.sim_events);
  r.fold(r.log.digest);

  if (o.trace) {
    const double capacity = r.wall_s * static_cast<double>(o.threads);
    add_layer(r, "sim.events", static_cast<double>(r.sim_events));
    std::uint64_t digests = 0;
    std::uint64_t log_total = 0;
    for (std::uint32_t s = 0; s < segments; ++s) {
      shard::ShardedCluster& seg = fleet.segment(s);
      digests += seg.edge().counters().messages_of(
          shard::ReplicaSyncAgent::kDigestType);
      log_total += log_updates(seg, 1, kFiles);
    }
    add_common_layers(r, merged, capacity, digests);
    add_layer(r, "shard.migrate.updates", 0.0);
    add_layer(r, "shard.recovery.gap_updates", 0.0);
    add_layer(r, "replica.log_updates", static_cast<double>(log_total));
    add_layer(r, "replica.checkpoint.bytes", 0.0);
    add_layer(r, "adapt.ticks", 0.0);
    add_layer(r, "adapt.decisions", 0.0);
    add_layer(r, "runtime.epochs", static_cast<double>(epoch_s.size()));
    // Over the mean, not the median: most epochs between detection rounds
    // are near idle, so the median epoch is noise.
    add_layer(r, "runtime.epoch_p99_over_mean",
              ratio(quantile(epoch_s, 0.99),
                    r.wall_s / static_cast<double>(epoch_s.size())));
    add_layer(r, "runtime.steals", static_cast<double>(stats.pool.steals));
    add_layer(r, "runtime.conveyor_msgs",
              static_cast<double>(stats.conveyor.messages));
    add_layer(r, "runtime.conveyor_packets",
              static_cast<double>(stats.conveyor.packets));
    add_layer(r, "runtime.lane_stalls",
              static_cast<double>(stats.conveyor.lane_stalls));
    add_layer(r, "trace.attributed_frac",
              ratio(merged.handler_total_s + merged.reads.total_s() +
                        merged.puts.total_s(),
                    capacity));
  }
  return r;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_json(const Options& o, const Result& r) {
  const ClientLog& log = r.log;
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"scale\": %g, \"trace\": %d, \"threads\": %u",
              o.workload.c_str(), o.seed, o.scale, o.trace ? 1 : 0,
              o.workload == "fleet_1000" ? o.threads : 1u);
  std::printf(", \"hardware_cores\": %u, \"ndebug\": %s, \"compiler\": \"%s\"",
              std::thread::hardware_concurrency(),
#ifdef NDEBUG
              "true",
#else
              "false",
#endif
              __VERSION__);
  std::printf(", \"construct_s\": %.9f, \"place_s\": %.9f, \"setup_s\": %.9f",
              r.construct_s, r.place_s, r.construct_s + r.place_s);
  std::printf(", \"wall_s\": %.9f, \"ref_per_wall\": %.9f, \"sim_s\": %.6f"
              ", \"peak_rss_mb\": %.6f",
              r.wall_s, r.ref_per_wall, r.sim_s, peak_rss_mb());
  std::printf(", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"reads\": %" PRIu64 ", \"writes\": %" PRIu64,
              r.attempted, log.failed, log.reads, log.writes);
  std::printf(", \"read_samples\": %zu, \"write_samples\": %zu",
              log.read_latency.size(), log.write_latency.size());
  std::printf(", \"read_p50_ms\": %.3f, \"read_p99_ms\": %.3f"
              ", \"read_tail_ms\": %.9f",
              percentile_ms(log.read_latency, 0.5),
              percentile_ms(log.read_latency, 0.99),
              tail_mean_ms(log.read_latency, 0.01));
  std::printf(", \"write_p50_ms\": %.3f, \"write_p99_ms\": %.3f"
              ", \"write_tail_ms\": %.9f",
              percentile_ms(log.write_latency, 0.5),
              percentile_ms(log.write_latency, 0.99),
              tail_mean_ms(log.write_latency, 0.01));
  std::printf(", \"stale_read_frac\": %.9f, \"level_violations\": %" PRIu64,
              ratio(static_cast<double>(log.stale_reads),
                    static_cast<double>(log.read_latency.size())),
              log.level_violations);
  std::printf(", \"logical_msgs\": %" PRIu64 ", \"wire_msgs\": %" PRIu64
              ", \"wire_bytes\": %" PRIu64 ", \"sim_events\": %" PRIu64,
              r.logical_msgs, r.wire_msgs, r.wire_bytes, r.sim_events);
  std::printf(", \"files\": %zu, \"converged\": %zu", r.files, r.converged);
  std::printf(", \"fingerprint\": \"%016" PRIx64 "\"", r.fingerprint);
  std::printf(", \"layers\": {");
  const char* sep = "";
  for (const auto& [name, value] : r.layers) {
    std::printf("%s\"%s\": %.9g", sep, name.c_str(), value);
    sep = ", ";
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace idea::perfbench

int main(int argc, char** argv) {
  using namespace idea;
  using namespace idea::perfbench;
  try {
    const Flags flags(argc, argv);
    Options o;
    o.workload = flags.get_string("workload", "");
    o.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
    o.trace = flags.get_int("trace", 0) != 0;
    o.scale = flags.get_double("scale", o.scale);
    o.threads = static_cast<std::uint32_t>(flags.get_int("threads", o.threads));
    o.obs = flags.get_int("obs", 1) != 0;
    if (o.scale <= 0.0 || o.threads == 0) {
      throw std::invalid_argument("--scale and --threads must be positive");
    }
    Result r;
    if (o.workload == "kv_macro") {
      r = run_cluster(o, kv_macro(o));
    } else if (o.workload == "rw_loss") {
      r = run_cluster(o, rw_loss(o));
    } else if (o.workload == "churn_recovery") {
      r = run_cluster(o, churn_recovery(o));
    } else if (o.workload == "fleet_1000") {
      r = run_fleet(o);
    } else {
      throw std::invalid_argument("unknown --workload '" + o.workload + "'");
    }
    print_json(o, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "idea_bench: %s\n", e.what());
    return 2;
  }
  return 0;
}
