#include "shard/sharded_cluster.hpp"

#include <algorithm>
#include <map>
#include <utility>

namespace idea::shard {

namespace {

/// The checkpoint pass's metric ids, interned once per process.
struct CheckpointMetrics {
  obs::MetricId runs = obs::MetricId::intern("ckpt.runs");
  obs::MetricId files_written = obs::MetricId::intern("ckpt.files_written");
  obs::MetricId files_clean = obs::MetricId::intern("ckpt.files_clean");
  obs::MetricId updates_written =
      obs::MetricId::intern("ckpt.updates_written");
  obs::MetricId bytes_written = obs::MetricId::intern("ckpt.bytes_written");
  obs::MetricId dirty_ratio_pct =
      obs::MetricId::intern("ckpt.dirty_ratio_pct");
};

const CheckpointMetrics& checkpoint_metrics() {
  static const CheckpointMetrics m;
  return m;
}

}  // namespace

ShardedCluster::ShardedCluster(ShardedClusterConfig config)
    : config_(std::move(config)), ring_(config_.endpoints) {
  // Re-sync unconditionally: a caller that set `endpoints` but forgot
  // sync_sizes() would otherwise hand the latency model a smaller node
  // count and read out of bounds on the first cross-endpoint message.
  config_.sync_sizes();
  if (config_.observability.enabled) {
    obs_ = std::make_unique<obs::Observability>(config_.endpoints,
                                                config_.observability);
  }
  latency_ = std::make_unique<sim::PlanetLabLatency>(config_.latency);
  sim_transport_ = std::make_unique<net::SimTransport>(
      sim_, *latency_, config_.transport);
  if (config_.batching) {
    batching_ = std::make_unique<net::BatchingTransport>(*sim_transport_,
                                                         config_.batch);
  }
  if (obs_ != nullptr) {
    sim_.set_metrics(obs_->cluster_meter());
    if (batching_ != nullptr) batching_->set_metrics(obs_->cluster_meter());
  }
  services_.reserve(config_.endpoints);
  incarnations_.assign(config_.endpoints, 0);
  checkpoints_.resize(config_.endpoints);
  for (NodeId n = 0; n < config_.endpoints; ++n) {
    services_.push_back(std::make_unique<core::IdeaService>(n, edge(), *this));
    arm_checkpoint_timer(n);
  }
  router_ = std::make_unique<RequestRouter>(*this);
  if (config_.adapt.enabled) {
    controller_ =
        std::make_unique<adapt::ConsistencyController>(sim_, obs_.get());
    controller_->start();
  }
}

ShardedCluster::~ShardedCluster() {
  // The groups go while the router and controller are still alive: an
  // agent's teardown fails its pending write concerns, and their
  // callbacks reach back into the deployment.  The dense index goes
  // first, so their lookups find no record that is being destroyed.
  by_file_.clear();
  files_.clear();
  services_.clear();
}

std::vector<NodeId> ShardedCluster::endpoints() const {
  std::vector<NodeId> out;
  out.reserve(services_.size());
  for (NodeId n = 0; n < services_.size(); ++n) {
    if (services_[n] != nullptr) out.push_back(n);
  }
  return out;
}

void ShardedCluster::place(FileId first, std::uint32_t count) {
  for (std::uint32_t i = 0; i < count; ++i) ensure_open(first + i);
}

FileGroup& ShardedCluster::open_group(FileId file,
                                      std::vector<NodeId> members) {
  FileGroup& group = files_.try_emplace(file).first->second;
  if (file < kDenseFileLimit) {
    if (file >= by_file_.size()) by_file_.resize(file + 1, nullptr);
    by_file_[file] = &group;
  }
  group.members = std::move(members);
  group.epoch = ++last_epoch_;
  // Every rank starts dark.  A crashed member's rank stays dark until its
  // restart builds it: sends addressed to it drop at the transport's
  // crash window, exactly like a live-but-dead endpoint.
  group.ranks.resize(group.members.size());
  for (std::uint32_t rank = 0; rank < group.members.size(); ++rank) {
    const NodeId member = group.members[rank];
    ++checkpoints_[member].hosted;
    if (services_[member] != nullptr) build_rank(file, group, rank);
  }
  announce_star(group);
  return group;
}

GroupRank& ShardedCluster::build_rank(FileId file, FileGroup& group,
                                      std::uint32_t rank) {
  const NodeId endpoint = group.members[rank];
  GroupRank& r = group.ranks[rank];
  r.transport = std::make_unique<GroupTransport>(edge(), group.members, rank,
                                                 group.epoch);
  r.node = std::make_unique<core::IdeaNode>(rank, file);
  r.sync = std::make_unique<ReplicaSyncAgent>(
      r.node->store(), *r.transport,
      static_cast<std::uint32_t>(group.members.size()),
      ReplicaSyncOptions{config_.replication_resend_timeout,
                         config_.replication_max_resends});
  r.transport->set_sink(r.sync.get());
  if (obs_ != nullptr) r.sync->set_observability(obs_.get(), endpoint);
  // Freshness hints piggyback on anti-entropy's counts: whenever this rank
  // learns a peer's version count from a digest, a repair or (while
  // anti-entropy runs) an ack, the peer rank's hint learns it too, feeding
  // bounded-staleness replica selection.  The record outlives its agents,
  // so the capture holds.
  r.sync->set_freshness_listener(
      [this, &group](NodeId peer_rank, std::uint64_t versions) {
        router_->note_freshness(group.ranks[peer_rank].hint, versions,
                                sim_.now());
      });
  if (config_.checkpoint.engine != replica::CheckpointEngineKind::kNone) {
    r.sync->set_dirty_list(checkpoints_[endpoint].dirty);
  }
  r.sync->start_anti_entropy(config_.anti_entropy_period);
  return r;
}

void ShardedCluster::announce_star(const FileGroup& group) {
  std::uint64_t dark = 0;  // ranks past 63 count as live
  for (std::uint32_t rank = 0; rank < group.ranks.size() && rank < 64;
       ++rank) {
    if (group.ranks[rank].node == nullptr) dark |= 1ull << rank;
  }
  const std::uint32_t acting = group.acting_rank();
  for (const GroupRank& rank : group.ranks) {
    if (rank.sync != nullptr) rank.sync->set_star(acting, dark);
  }
}

void ShardedCluster::teardown_group(
    std::unordered_map<FileId, FileGroup>::iterator it) {
  if (it->first < by_file_.size()) by_file_[it->first] = nullptr;
  for (const NodeId member : it->second.members) {
    --checkpoints_[member].hosted;
  }
  files_.erase(it);
}

std::vector<FileId> ShardedCluster::sorted_placed(NodeId member) const {
  // files_ is hash-ordered; callers that send or record per file need a
  // reproducible order.
  std::vector<FileId> placed;
  placed.reserve(files_.size());
  for (const auto& [file, group] : files_) {
    if (member == kNoNode ||
        std::find(group.members.begin(), group.members.end(), member) !=
            group.members.end()) {
      placed.push_back(file);
    }
  }
  std::sort(placed.begin(), placed.end());
  return placed;
}

FileGroup* ShardedCluster::ensure_open(FileId file) {
  if (FileGroup* placed = group(file)) return placed;
  std::vector<NodeId> members = group_of(file);
  if (members.empty()) return nullptr;
  return &open_group(file, std::move(members));
}

MembershipChange ShardedCluster::add_endpoint() {
  const HashRing before = ring_;
  NodeId id;
  std::uint32_t incarnation = 0;
  if (!free_ids_.empty()) {
    // Reuse the smallest freed id under a bumped incarnation: long-lived
    // churn keeps the id space dense.  Stale traffic addressed to the old
    // incarnation is already fenced — every group it belonged to was
    // rebuilt under a new group epoch when it left.
    id = *free_ids_.begin();
    free_ids_.erase(free_ids_.begin());
    incarnation = ++incarnations_[id];
  } else {
    id = static_cast<NodeId>(services_.size());
    services_.push_back(nullptr);
    incarnations_.push_back(0);
    checkpoints_.emplace_back();
  }
  // Grow the latency topology and the transport's per-node state first:
  // the new endpoint's IdeaService attaches to the transport immediately.
  // (No-ops for a reused id — its coordinates and clock skew persist.)
  latency_->ensure_nodes(id + 1);
  sim_transport_->ensure_node(id);
  ring_.add_node(id, incarnation);
  services_[id] = std::make_unique<core::IdeaService>(id, edge(), *this);
  if (obs_ != nullptr) {
    obs_->ensure_endpoints(static_cast<std::uint32_t>(services_.size()));
  }
  arm_checkpoint_timer(id);

  MembershipChange change;
  change.endpoint = id;
  change.incarnation = incarnation;
  migrate_changed_groups(before, change);
  return change;
}

MembershipChange ShardedCluster::remove_endpoint(NodeId endpoint) {
  MembershipChange change;
  if (!has_endpoint(endpoint) || !ring_.contains(endpoint)) return change;
  change.endpoint = endpoint;
  change.incarnation = incarnations_[endpoint];
  const HashRing before = ring_;
  ring_.remove_node(endpoint);
  // Migrate while the leaving endpoint is still alive: its replicas are
  // part of the state hand-off union (it may hold updates nobody else
  // received yet).
  migrate_changed_groups(before, change);
  cancel_checkpoint_timer(endpoint);
  checkpoints_[endpoint].dirty.clear();  // its replicas are gone
  services_[endpoint].reset();  // detaches its transport slot
  free_ids_.insert(endpoint);
  return change;
}

void ShardedCluster::migrate_changed_groups(const HashRing& before,
                                            MembershipChange& change) {
  // Sorted walk so migration (and therefore every streaming send)
  // happens in a reproducible order.
  const std::vector<FileId> placed = sorted_placed();
  change.rebalance =
      HashRing::rebalance(before, ring_, placed, config_.replication);

  for (FileId file : placed) {
    auto it = files_.find(file);
    std::vector<NodeId> members = ring_.replicas(file, config_.replication);
    if (members == it->second.members) continue;

    // 1. Union snapshot of every old replica's log: under loss the old
    //    coordinator may be missing updates a peer applied, and the
    //    leaving endpoint may hold updates nobody else received yet.
    std::map<replica::UpdateKey, replica::Update> merged;
    for (const GroupRank& rank : it->second.ranks) {
      if (rank.node == nullptr) continue;  // crashed: state is gone
      for (replica::Update& u : rank.node->store().export_log()) {
        merged.emplace(u.key, std::move(u));
      }
    }
    // Parked hints may hold the *only* surviving copy of a sloppy-quorum
    // write (every live old member may have missed it under loss).  Fold
    // them into the union: the snapshot imports keys unchanged and the
    // adopter continues the lineage writer sequence past them, so the
    // rank-space keys stay valid across the membership change — the old
    // member vector is only needed to decide, below, which hints still
    // owe a crashed member of the *new* group a hand-off.
    std::vector<replica::HintedWrite> parked = hints_.take_file(file);
    for (const replica::HintedWrite& h : parked) {
      merged.emplace(h.update.key, h.update);
    }
    std::vector<replica::Update> snapshot;
    snapshot.reserve(merged.size());
    for (auto& [key, u] : merged) snapshot.push_back(std::move(u));

    // 2. Tear down the old group epoch.
    teardown_group(it);

    if (members.empty()) {
      // Last endpoint left; the file is unplaced and its parked hints
      // have no group to hand back to.
      hints_.retire(parked.size());
      continue;
    }

    // 3. Fresh replicas on the new members; the new coordinator adopts the
    //    snapshot synchronously (the durable hand-off — this also advances
    //    its writer-0 sequence so routed writes continue the old history),
    //    then streams it to the other ranks over the wire.
    FileGroup& group = open_group(file, std::move(members));
    // Re-mint the parked hints against the new membership: a hint whose
    // target is a still-crashed member of the new group keeps its durable
    // hand-off obligation (at a fresh stand-in outside the new group);
    // every other hint retires — its update now lives in the snapshot the
    // live group adopted, which is strictly stronger than a parked copy.
    std::size_t retired = 0;
    for (replica::HintedWrite& h : parked) {
      const bool still_owed = is_crashed(h.target) &&
                              group.rank_of(h.target) < group.members.size();
      if (!still_owed) {
        ++retired;
        continue;
      }
      const NodeId stand_in = stand_in_for(file, h.target);
      if (stand_in != kNoNode) h.stand_in = stand_in;
      hints_.re_mint(std::move(h));
    }
    hints_.retire(retired);
    // The acting coordinator adopts the snapshot: rank 0 unless that
    // member is crashed, in which case the next alive rank takes it (rank
    // space is multi-writer, so this is safe).
    const std::uint32_t acting = group.acting_rank();
    if (!snapshot.empty() && acting < group.ranks.size()) {
      const GroupRank& adopter = group.ranks[acting];
      const NodeId adopter_ep = group.members[acting];
      adopter.node->store().import_log(snapshot);
      change.state_updates += snapshot.size();
      const std::size_t streamed = adopter.sync->stream_state(snapshot);
      change.stream_messages += streamed;
      if (obs_ != nullptr) {
        obs::Meter meter = obs_->cluster_meter();
        meter.add(obs::MetricId::intern("shard.migrate.state_updates"),
                  snapshot.size());
        meter.add(obs::MetricId::intern("shard.migrate.stream_messages"),
                  streamed);
      }
      // Until the stream lands, the other ranks of the new group are
      // cold, so policy reads pin to the already-warm new coordinator for
      // the window.  Two one-way trips (batching flush + delivery) from
      // the adopter plus slack bounds the in-flight time.
      if (group.members.size() > 1) {
        SimDuration horizon = 0;
        for (const NodeId member : group.members) {
          if (member == adopter_ep) continue;
          horizon = std::max(horizon, latency_->mean(adopter_ep, member));
        }
        const SimDuration window = 2 * horizon + msec(100);
        group.migration_until = sim_.now() + window;
        if (obs_ != nullptr) {
          obs_->cluster_meter().observe(
              obs::MetricId::intern("shard.migration_pin_us"),
              static_cast<std::uint64_t>(window));
        }
      }
    }
    ++change.files_migrated;
    if (obs_ != nullptr) {
      obs_->cluster_meter().add(obs::MetricId::intern("shard.migrations"));
    }
  }
}

NodeId ShardedCluster::stand_in_for(FileId file, NodeId target) const {
  const std::vector<NodeId>* members = members_of(file);
  const std::vector<NodeId> group =
      members != nullptr ? *members : group_of(file);
  // Walk the ring successors past the replica group: ask for enough
  // candidates to skip every member plus every currently-down endpoint.
  const auto want = static_cast<std::uint32_t>(
      group.size() + crashed_at_.size() + 1);
  std::vector<NodeId> candidates;
  for (NodeId candidate : ring_.replicas(file, want)) {
    if (!has_endpoint(candidate)) continue;
    if (std::find(group.begin(), group.end(), candidate) != group.end()) {
      continue;
    }
    candidates.push_back(candidate);
  }
  if (candidates.empty()) return kNoNode;
  // Spread distinct crashed members over distinct stand-ins (when there
  // are enough): the target's group rank indexes the successor list, so
  // one sloppy write with two dark members parks its two hints at two
  // different endpoints, like Dynamo's per-node hinted replicas.
  const auto rank = static_cast<std::size_t>(
      std::find(group.begin(), group.end(), target) - group.begin());
  return candidates[rank % candidates.size()];
}

void ShardedCluster::queue_hint(FileId file, NodeId target, NodeId stand_in,
                                const replica::Update& update) {
  hints_.enqueue(replica::HintedWrite{stand_in, target, file, update,
                                      sim_.now()});
  if (obs_ != nullptr) {
    obs::Meter meter = obs_->cluster_meter();
    meter.add(obs::MetricId::intern("hints.queued"));
    meter.set_gauge(obs::MetricId::intern("hints.queue_depth"),
                    static_cast<std::int64_t>(hints_.depth()));
  }
}

bool ShardedCluster::close_file(FileId file) {
  auto it = files_.find(file);
  if (it == files_.end()) return false;
  teardown_group(it);
  hints_.drop_file(file);
  return true;
}

core::IdeaNode* ShardedCluster::replica(FileId file, NodeId endpoint) {
  const FileGroup* g = group(file);
  return g == nullptr ? nullptr : replica_at_rank(file, g->rank_of(endpoint));
}

core::IdeaNode* ShardedCluster::replica_at_rank(FileId file,
                                                std::uint32_t rank) {
  const FileGroup* g = group(file);
  if (g == nullptr || rank >= g->ranks.size()) return nullptr;
  return g->ranks[rank].node.get();  // null on a crashed member's rank
}

ReplicaSyncAgent* ShardedCluster::sync_agent(FileId file,
                                             std::uint32_t rank) {
  const FileGroup* g = group(file);
  if (g == nullptr || rank >= g->ranks.size()) return nullptr;
  return g->ranks[rank].sync.get();
}

bool ShardedCluster::converged(FileId file) {
  const FileGroup* g = group(file);
  if (g == nullptr) return true;  // nothing placed, nothing diverged
  std::uint64_t digest = 0;
  bool first = true;
  for (const GroupRank& rank : g->ranks) {
    if (rank.node == nullptr) continue;  // crashed: judge the living
    const std::uint64_t d = rank.node->store().content_digest();
    if (first) {
      digest = d;
      first = false;
    } else if (d != digest) {
      return false;
    }
  }
  return true;
}

void ShardedCluster::arm_checkpoint_timer(NodeId endpoint) {
  if (!config_.checkpoint.enabled()) return;
  std::uint64_t& timer = checkpoints_[endpoint].timer;
  if (timer != 0) return;
  timer = sim_.schedule_periodic(
      config_.checkpoint.period,
      [this, endpoint] { checkpoint_endpoint(endpoint); });
}

void ShardedCluster::cancel_checkpoint_timer(NodeId endpoint) {
  std::uint64_t& timer = checkpoints_[endpoint].timer;
  if (timer != 0) {
    sim_.cancel(timer);
    timer = 0;
  }
}

void ShardedCluster::checkpoint_endpoint(NodeId endpoint) {
  if (config_.checkpoint.engine == replica::CheckpointEngineKind::kNone ||
      !has_endpoint(endpoint)) {
    return;
  }
  // Only a listed replica can differ from its record: every other one
  // has not mutated since a pass offered it, nor been rebuilt.  Durable
  // storage still does the dirty test, in ascending file order.
  EndpointCheckpoints& ckpt = checkpoints_[endpoint];
  std::vector<FileId>& dirty = ckpt.dirty;
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  std::uint64_t written = 0;
  std::uint64_t updates = 0;
  std::uint64_t bytes = 0;
  for (FileId file : dirty) {
    const FileGroup* g = group(file);
    if (g == nullptr) continue;  // closed since it was listed
    const std::uint32_t r = g->rank_of(endpoint);
    if (r == g->ranks.size()) continue;  // migrated off this endpoint
    const GroupRank& rank = g->ranks[r];
    rank.sync->checkpoint_offered();
    const replica::CheckpointRecord* record = storage_.checkpoint(
        endpoint, incarnations_[endpoint],
        {file, rank.node->store(), g->members, g->epoch},
        sim_.now());
    if (record == nullptr) continue;
    ++written;
    updates += record->updates.size();
    bytes += record->bytes;
  }
  dirty.clear();

  if (obs_ != nullptr) {
    const CheckpointMetrics& m = checkpoint_metrics();
    obs::Meter meter = obs_->endpoint_meter(endpoint);
    meter.add(m.runs);
    meter.add(m.files_written, written);
    meter.add(m.files_clean, ckpt.hosted - written);
    meter.add(m.updates_written, updates);
    meter.add(m.bytes_written, bytes);
    if (ckpt.hosted > 0) {
      meter.observe(m.dirty_ratio_pct, 100 * written / ckpt.hosted);
    }
  }
}

CrashReport ShardedCluster::crash_endpoint(NodeId endpoint) {
  CrashReport report;
  if (!has_endpoint(endpoint) || is_crashed(endpoint)) return report;
  report.endpoint = endpoint;
  report.incarnation = incarnations_[endpoint];
  report.at = sim_.now();
  // Sever the wire first: from this instant nothing reaches or leaves the
  // endpoint, and every message in flight or still in a batch queue dies
  // with its connection (crash windows act on the whole flight).
  sim_transport_->crash_node(endpoint, sim_.now());
  if (batching_ != nullptr) batching_->discard_from(endpoint);
  cancel_checkpoint_timer(endpoint);
  checkpoints_[endpoint].dirty.clear();  // its replicas die below
  // Darken the endpoint's rank in every placed group, in destruction
  // order (a move-assign from an empty rank would free the transport
  // before the agent that cancels its timers through it).  Sorted walk
  // for a reproducible report.
  for (FileId file : sorted_placed(endpoint)) {
    FileGroup& group = files_.find(file)->second;
    GroupRank& rank = group.ranks[group.rank_of(endpoint)];
    if (rank.node == nullptr) continue;
    ++report.groups_affected;
    report.volatile_updates_lost += rank.node->store().update_count();
    rank.sync.reset();
    rank.node.reset();
    rank.transport.reset();
    // The hint describes volatile state that no longer exists; a
    // restarted incarnation must not be preferred on its pre-crash
    // reputation.
    router_->forget_hint(rank.hint);
    announce_star(group);
    // A trace parked on this file waiting for a heal may have been
    // watching the replica that just died; the restart builds a fresh
    // one, so the old causal thread is moot.
    if (obs_ != nullptr) obs_->clear_repair_trace(file);
  }
  services_[endpoint].reset();
  crashed_at_[endpoint] = sim_.now();
  if (obs_ != nullptr) {
    obs_->cluster_meter().add(obs::MetricId::intern("crash.crashes"));
  }
  return report;
}

RecoveryReport ShardedCluster::restart_endpoint(NodeId endpoint) {
  RecoveryReport report;
  const auto down = crashed_at_.find(endpoint);
  // A restart in the crash's own instant is refused: the transport's crash
  // window closes only after it opened, and a window closed at once would
  // still let the dead incarnation's same-instant sends land after this
  // restart read the survivors' logs.
  if (down == crashed_at_.end() || down->second == sim_.now()) return report;
  report.endpoint = endpoint;
  report.downtime = sim_.now() - down->second;
  crashed_at_.erase(down);
  sim_transport_->revive_node(endpoint, sim_.now());
  report.incarnation = ++incarnations_[endpoint];
  services_[endpoint] =
      std::make_unique<core::IdeaService>(endpoint, edge(), *this);
  arm_checkpoint_timer(endpoint);

  // Build the endpoint's dark rank in every group it belongs to, in
  // sorted file order so the sends replay deterministically.
  for (FileId file : sorted_placed(endpoint)) {
    FileGroup& g = *group(file);
    const std::uint32_t self_rank = g.rank_of(endpoint);
    // The new rank needs no round of its own to heal.  A restarted
    // follower is un-matched at the coordinator (peer_restarted below),
    // whose next round sends it what it lacks; once the imports below
    // are in, it takes its own matches as current.  A restarted
    // coordinator changed the acting rank, so every survivor forgot its
    // matches and digests it at its next round.
    GroupRank& restarted = build_rank(file, g, self_rank);
    replica::ReplicaStore& self = restarted.node->store();
    announce_star(g);

    // 1. The latest durable checkpoint.  Updates are keyed by rank-space
    //    writer ids, so a record from a different membership (rank
    //    mapping) is unusable: recover from zero + anti-entropy instead.
    const replica::CheckpointRecord* ckpt = storage_.latest(endpoint, file);
    if (ckpt != nullptr && ckpt->members == g.members) {
      report.checkpoint_updates += self.import_log(ckpt->updates).applied;
      ++report.checkpoint_files;
    }

    // 2. The survivors carry on; their rounds move to the restart's grid,
    //    so batching merges the group's digests.
    //    Own-writer continuation: writes this endpoint coordinated after
    //    its last checkpoint live on in the survivors; re-adopting them
    //    keeps its writer sequence from reusing numbers the group saw.
    //    The survivor's counts, with this writer's lowered to what is
    //    already loaded, select exactly those writes.
    std::size_t survivor_max_updates = 0;
    for (std::uint32_t rank = 0; rank < g.ranks.size(); ++rank) {
      const GroupRank& peer = g.ranks[rank];
      if (rank == self_rank || peer.node == nullptr) continue;
      peer.sync->peer_restarted(self_rank);
      const replica::ReplicaStore& theirs = peer.node->store();
      survivor_max_updates =
          std::max(survivor_max_updates, theirs.update_count());
      vv::VersionVector known = theirs.evv().counts();
      known.set(self_rank, self.local_seq());
      report.reconciled_updates +=
          self.import_log(theirs.updates_ahead_of(known)).applied;
    }
    if (self_rank != g.acting_rank()) restarted.sync->assume_matched();

    // 3. Whatever is still missing is the O(delta) gap anti-entropy
    //    streams.
    if (survivor_max_updates > self.update_count()) {
      report.gap_updates += survivor_max_updates - self.update_count();
    }
    ++report.files_recovered;
  }

  // Hinted-handoff drain: updates parked at stand-ins while this
  // endpoint was down come home.  Each file's batch is imported into the
  // acting coordinator's store exactly once (ImportReport counts the
  // duplicates — typically all of them when the coordinator itself wrote
  // the updates), then a targeted digest pushes the delta to the
  // restarted rank over the ordinary shard.digest/repair wire path.
  std::vector<replica::HintedWrite> drained = hints_.drain_for(endpoint);
  if (!drained.empty()) {
    std::map<FileId, std::vector<replica::Update>> by_file;
    for (replica::HintedWrite& h : drained) {
      by_file[h.file].push_back(std::move(h.update));
    }
    for (auto& [file, batch] : by_file) {
      const FileGroup* g = group(file);
      if (g == nullptr) continue;  // closed meanwhile
      const std::uint32_t acting = g->acting_rank();
      if (acting == g->ranks.size()) continue;
      const GroupRank& coord = g->ranks[acting];
      const replica::ReplicaStore::ImportReport r =
          coord.node->store().import_log(batch);
      report.hinted_updates += batch.size();
      report.hinted_duplicates += r.duplicates;
      const std::uint32_t self_rank = g->rank_of(endpoint);
      if (acting != self_rank) coord.sync->anti_entropy_with(self_rank);
    }
    if (obs_ != nullptr) {
      obs::Meter meter = obs_->cluster_meter();
      meter.add(obs::MetricId::intern("hints.drained"), drained.size());
      meter.add(obs::MetricId::intern("hints.drain_duplicates"),
                report.hinted_duplicates);
      meter.set_gauge(obs::MetricId::intern("hints.queue_depth"),
                      static_cast<std::int64_t>(hints_.depth()));
    }
  }

  if (obs_ != nullptr) {
    obs::Meter meter = obs_->cluster_meter();
    meter.add(obs::MetricId::intern("crash.restarts"));
    meter.observe(obs::MetricId::intern("recovery.downtime_us"),
                  static_cast<std::uint64_t>(report.downtime));
    meter.observe(obs::MetricId::intern("recovery.checkpoint_updates"),
                  report.checkpoint_updates);
    meter.observe(obs::MetricId::intern("recovery.gap_updates"),
                  report.gap_updates);
  }
  return report;
}

}  // namespace idea::shard
