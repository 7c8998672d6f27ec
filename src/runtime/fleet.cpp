#include "runtime/fleet.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "client/session.hpp"
#include "replica/store.hpp"
#include "util/rng.hpp"

namespace idea::runtime {

namespace {

/// Modeled one-way latency of a cross-segment hop, applied before the
/// delivery is rounded up to the next epoch edge.
constexpr SimDuration kHopLatency = msec(20);

/// FNV-1a over a byte string (explicit, so digests never depend on the
/// standard library's std::hash).
std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t read_value_digest(const client::ReadResult& r) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  if (r.updates != nullptr) {
    for (const replica::Update& u : *r.updates) {
      h = mix64(h ^ (static_cast<std::uint64_t>(u.key.writer) << 32 ^
                     u.key.seq));
      h = fnv1a(h, u.content);
    }
  }
  return h;
}

}  // namespace

// ---------------------------------------------------------------------
// Segment: one ring slice — a full ShardedCluster plus the client tier
// that originates fleet operations.  Implements Partition; every method
// below runs on whichever worker thread owns the segment's epoch task.
// ---------------------------------------------------------------------

class ShardedFleet::Segment final : public Partition {
 public:
  Segment(ShardedFleet& fleet, std::uint32_t index, NodeId offset,
          shard::ShardedClusterConfig cfg)
      : fleet_(fleet),
        index_(index),
        offset_(offset),
        endpoints_(cfg.endpoints),
        cluster_(std::make_unique<shard::ShardedCluster>(std::move(cfg))),
        rng_(mix64(cluster_->config().seed ^ 0xF1EE70000ull ^ index)) {
    client_ = std::make_unique<client::Client>(*cluster_);
    session_ = std::make_unique<client::ClientSession>(
        client_->session(client::SessionOptions{}));
  }

  // ----------------------------------------------------------------
  // Partition
  // ----------------------------------------------------------------

  void begin_epoch(SimTime start, std::uint64_t epoch) override {
    // The pool barrier synchronized the hand-off; stamp the new owner.
    cluster_->sim().rebind_owner_thread();
    cluster_->transport().rebind_owner_thread();
    fleet_.conveyor_->drain(
        index_, epoch, [&](std::uint32_t, std::vector<FleetMsg>& msgs) {
          for (FleetMsg& m : msgs) {
            // Cross-segment delivery lands at a deterministic instant:
            // the modeled hop, rounded up to this epoch's edge.
            const SimTime at = std::max(start, m.issued_at + kHopLatency);
            cluster_->sim().schedule_at(
                at, [this, msg = std::move(m)]() mutable { on_msg(msg); });
          }
        });
  }

  void run_until(SimTime end) override { cluster_->run_until(end); }

  void end_epoch(SimTime, std::uint64_t epoch) override {
    fleet_.conveyor_->seal(index_, epoch);
  }

  // ----------------------------------------------------------------
  // Workload (issuing side)
  // ----------------------------------------------------------------

  void arm_workload(const FleetWorkloadParams& params) {
    params_ = params;
    workload_end_ = cluster_->sim().now() + params.duration;
    const double rate =
        params.ops_per_endpoint_per_sec * static_cast<double>(endpoints_);
    if (rate <= 0.0) return;
    mean_gap_us_ = 1e6 / rate;
    schedule_next_op(cluster_->sim().now() + next_gap());
  }

  void on_msg(FleetMsg& m) {
    switch (m.kind) {
      case FleetMsg::Kind::kPut: {
        auto h = session_->put(m.file, std::move(m.content), m.meta);
        FleetMsg reply;
        reply.kind = FleetMsg::Kind::kPutReply;
        reply.origin = m.origin;
        reply.op_id = m.op_id;
        reply.file = m.file;
        reply.issued_at = m.issued_at;
        reply.ok = h.ok();
        post_reply(std::move(reply));
        break;
      }
      case FleetMsg::Kind::kGet: {
        auto h = session_->read(m.file);
        FleetMsg reply;
        reply.kind = FleetMsg::Kind::kGetReply;
        reply.origin = m.origin;
        reply.op_id = m.op_id;
        reply.file = m.file;
        reply.issued_at = m.issued_at;
        reply.ok = h.ok();
        if (h.ok()) reply.value_digest = read_value_digest(h.value());
        post_reply(std::move(reply));
        break;
      }
      case FleetMsg::Kind::kPutReply:
      case FleetMsg::Kind::kGetReply: {
        ++replies_;
        remote_latency_total_ += cluster_->sim().now() - m.issued_at;
        op_digest_ = mix64(op_digest_ ^ mix64(m.op_id * 0x9E3779B97F4A7C15ull) ^
                           (m.ok ? 0x5A5Aull : 0xA5A5ull) ^ m.value_digest);
        break;
      }
    }
  }

  // Accessors used by the fleet (between runs — the barrier makes the
  // segment quiescent).  Const-qualified but returning a mutable ref:
  // digests/metrics walks need non-const cluster entry points.
  [[nodiscard]] shard::ShardedCluster& cluster() const { return *cluster_; }
  [[nodiscard]] NodeId offset() const { return offset_; }
  [[nodiscard]] std::uint32_t endpoints() const { return endpoints_; }
  [[nodiscard]] const std::vector<FileId>& files() const { return files_; }
  void add_file(FileId f) { files_.push_back(f); }
  [[nodiscard]] std::uint64_t local_ops() const { return local_ops_; }
  [[nodiscard]] std::uint64_t remote_ops() const { return remote_ops_; }
  [[nodiscard]] std::uint64_t replies() const { return replies_; }
  [[nodiscard]] SimDuration remote_latency_total() const {
    return remote_latency_total_;
  }
  [[nodiscard]] std::uint64_t op_digest() const { return op_digest_; }

 private:
  [[nodiscard]] SimDuration next_gap() {
    const double gap = rng_.exponential(mean_gap_us_);
    return std::max<SimDuration>(1, static_cast<SimDuration>(gap));
  }

  void schedule_next_op(SimTime when) {
    if (when >= workload_end_) return;
    cluster_->sim().schedule_at(when, [this, when] {
      issue_op();
      schedule_next_op(when + next_gap());
    });
  }

  void issue_op() {
    const bool is_read = rng_.chance(params_.read_fraction);
    const std::uint32_t total_segments = fleet_.segments();
    const bool cross = total_segments > 1 &&
                       rng_.chance(params_.cross_segment_fraction);
    std::uint32_t target = index_;
    if (cross) {
      target = static_cast<std::uint32_t>(
          rng_.next_below(total_segments - 1));
      if (target >= index_) ++target;
    }
    const std::vector<FileId>& candidates = fleet_.segments_[target]->files();
    if (candidates.empty()) return;
    const FileId file =
        candidates[static_cast<std::size_t>(rng_.next_below(
            candidates.size()))];
    const std::uint64_t op_id = next_op_id_++;
    if (!cross) {
      ++local_ops_;
      if (is_read) {
        auto h = session_->read(file);
        if (h.ok()) {
          op_digest_ =
              mix64(op_digest_ ^ mix64(op_id) ^ read_value_digest(h.value()));
        }
      } else {
        (void)session_->put(file, op_content(op_id), 1.0);
      }
      return;
    }
    ++remote_ops_;
    FleetMsg m;
    m.kind = is_read ? FleetMsg::Kind::kGet : FleetMsg::Kind::kPut;
    m.origin = index_;
    m.op_id = op_id;
    m.file = file;
    m.issued_at = cluster_->sim().now();
    if (!is_read) {
      m.content = op_content(op_id);
      m.meta = 1.0;
    }
    fleet_.conveyor_->post(index_, target, std::move(m));
  }

  [[nodiscard]] std::string op_content(std::uint64_t op_id) const {
    return "s" + std::to_string(index_) + ":" + std::to_string(op_id);
  }

  void post_reply(FleetMsg reply) {
    fleet_.conveyor_->post(index_, reply.origin, std::move(reply));
  }

  ShardedFleet& fleet_;
  const std::uint32_t index_;
  const NodeId offset_;
  const std::uint32_t endpoints_;
  std::unique_ptr<shard::ShardedCluster> cluster_;
  std::unique_ptr<client::Client> client_;
  std::unique_ptr<client::ClientSession> session_;
  Rng rng_;  ///< Per-segment stream: issuance identical at any threads.
  std::vector<FileId> files_;  ///< Placed here, ascending.

  FleetWorkloadParams params_;
  SimTime workload_end_ = 0;
  double mean_gap_us_ = 0.0;
  std::uint64_t next_op_id_ = 1;
  std::uint64_t local_ops_ = 0;
  std::uint64_t remote_ops_ = 0;
  std::uint64_t replies_ = 0;
  SimDuration remote_latency_total_ = 0;
  std::uint64_t op_digest_ = 0;
};

// ---------------------------------------------------------------------
// ShardedFleet
// ---------------------------------------------------------------------

ShardedFleet::ShardedFleet(shard::ShardedClusterConfig config)
    : config_(std::move(config)) {
  const std::uint32_t segs = config_.runtime.effective_segments();
  assert(segs > 0 && config_.endpoints >= segs &&
         "need at least one endpoint per segment");
  conveyor_ = std::make_unique<Conveyor<FleetMsg>>(segs);
  const std::uint32_t base = config_.endpoints / segs;
  const std::uint32_t extra = config_.endpoints % segs;
  NodeId offset = 0;
  for (std::uint32_t s = 0; s < segs; ++s) {
    shard::ShardedClusterConfig seg_cfg = config_;
    seg_cfg.endpoints = base + (s < extra ? 1 : 0);
    // Independent per-segment streams: the fleet's behavior is a function
    // of (seed, segment count), never of the thread count.
    seg_cfg.seed = mix64(config_.seed ^ (0x5E63E47ull + s));
    seg_cfg.transport.seed = mix64(seg_cfg.seed ^ 0x77ull);
    seg_cfg.sync_sizes();
    segments_.push_back(
        std::make_unique<Segment>(*this, s, offset, std::move(seg_cfg)));
    offset += base + (s < extra ? 1 : 0);
  }
  pool_ = std::make_unique<WorkerPool>(config_.runtime.threads);
  std::vector<Partition*> parts;
  parts.reserve(segments_.size());
  for (auto& seg : segments_) parts.push_back(seg.get());
  psim_ = std::make_unique<ParallelSimulator>(*pool_, std::move(parts),
                                              config_.runtime.epoch);
}

ShardedFleet::~ShardedFleet() = default;

void ShardedFleet::place(FileId first, std::uint32_t count) {
  for (FileId f = first; f < first + count; ++f) {
    const std::uint32_t s = segment_of_file(f);
    segments_[s]->cluster().ensure_open(f);
    segments_[s]->add_file(f);
  }
}

void ShardedFleet::set_workload(FleetWorkloadParams params) {
  for (auto& seg : segments_) seg->arm_workload(params);
}

void ShardedFleet::schedule_on(
    std::uint32_t segment, SimTime t,
    std::function<void(shard::ShardedCluster&)> fn) {
  Segment* seg = segments_.at(segment).get();
  seg->cluster().sim().schedule_at(
      t, [seg, fn = std::move(fn)] { fn(seg->cluster()); });
}

std::vector<std::pair<NodeId, std::uint64_t>>
ShardedFleet::endpoint_digests() {
  std::vector<std::pair<NodeId, std::uint64_t>> out;
  for (auto& seg : segments_) {
    shard::ShardedCluster& cluster = seg->cluster();
    for (NodeId local = 0; local < cluster.size(); ++local) {
      if (!cluster.has_endpoint(local)) continue;
      std::uint64_t d = 0;
      for (const FileId f : seg->files()) {
        core::IdeaNode* replica = cluster.replica(f, local);
        if (replica != nullptr) {
          d ^= replica->store().content_digest() * mix64(f * 2654435761ull);
        }
      }
      out.emplace_back(seg->offset() + local, d);
    }
  }
  return out;
}

std::map<std::string, std::uint64_t> ShardedFleet::message_counts() const {
  std::map<std::string, std::uint64_t> merged;
  for (const auto& seg : segments_) {
    for (const auto& [name, count] : seg->cluster().wire_counters().by_type()) {
      merged[name] += count;
    }
  }
  return merged;
}

std::string ShardedFleet::metrics_json() const {
  std::string out = "{\n";
  bool any = false;
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    obs::Observability* obs = segments_[s]->cluster().obs();
    if (obs == nullptr) continue;
    if (any) out += ",\n";
    any = true;
    out += "\"segment_" + std::to_string(s) +
           "\": " + obs->export_metrics_json();
  }
  out += "\n}\n";
  return out;
}

std::size_t ShardedFleet::converged_files() {
  std::size_t n = 0;
  for (auto& seg : segments_) {
    for (const FileId f : seg->files()) {
      if (seg->cluster().converged(f)) ++n;
    }
  }
  return n;
}

FleetStats ShardedFleet::stats() const {
  FleetStats s;
  for (const auto& seg : segments_) {
    s.local_ops += seg->local_ops();
    s.remote_ops += seg->remote_ops();
    s.replies += seg->replies();
    s.remote_latency_total += seg->remote_latency_total();
    s.op_digest = mix64(s.op_digest ^ seg->op_digest());
  }
  s.conveyor = conveyor_->stats();
  s.pool = pool_->stats();
  return s;
}

std::uint32_t ShardedFleet::segments() const {
  return static_cast<std::uint32_t>(segments_.size());
}

shard::ShardedCluster& ShardedFleet::segment(std::uint32_t s) {
  return segments_.at(s)->cluster();
}

std::uint32_t ShardedFleet::segment_of_file(FileId file) const {
  return static_cast<std::uint32_t>(mix64(0xF11E5ull ^ file) %
                                    segments_.size());
}

std::uint32_t ShardedFleet::segment_endpoints(std::uint32_t s) const {
  return segments_.at(s)->endpoints();
}

NodeId ShardedFleet::global_endpoint(std::uint32_t s, NodeId local) const {
  return segments_.at(s)->offset() + local;
}

}  // namespace idea::runtime
