#include "shard/request_router.hpp"

#include <algorithm>
#include <tuple>

#include "adapt/controller.hpp"
#include "core/idea_node.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::shard {
namespace {

/// The router's metric ids, interned once per process.
struct RouterMetrics {
  obs::MetricId reads = obs::MetricId::intern("router.reads");
  obs::MetricId writes = obs::MetricId::intern("router.writes");
  obs::MetricId escalated = obs::MetricId::intern("router.read.escalated");
  obs::MetricId staleness_versions =
      obs::MetricId::intern("router.read.staleness_versions");
  obs::MetricId staleness_age_us =
      obs::MetricId::intern("router.read.staleness_age_us");
  obs::MetricId hint_age_us = obs::MetricId::intern("router.hint.age_us");
  obs::MetricId migration_pinned =
      obs::MetricId::intern("router.read.migration_pinned");
  obs::MetricId read_served = obs::MetricId::intern("read.served");
  obs::MetricId write_failover =
      obs::MetricId::intern("router.write.failover");
  obs::MetricId write_wack = obs::MetricId::intern("router.write.wack");
  obs::MetricId write_sloppy =
      obs::MetricId::intern("router.write.sloppy");
  obs::MetricId hint_expired =
      obs::MetricId::intern("router.hint.expired");
  obs::MetricId read_adapted =
      obs::MetricId::intern("router.read.adapted");
};

const RouterMetrics& router_metrics() {
  static const RouterMetrics m;
  return m;
}

}  // namespace

core::IdeaNode* RequestRouter::open(FileId file) {
  const std::size_t before = cluster_.placed_files();
  core::IdeaNode* coordinator = cluster_.ensure_open(file);
  if (coordinator != nullptr && cluster_.placed_files() > before) {
    ++stats_.opens;
  }
  return coordinator;
}

RequestRouter::WriteDispatch RequestRouter::write_with_concern(
    FileId file, std::string content, double meta_delta,
    const client::WriteConcern& concern, WriteAckCallback on_result,
    const obs::TraceContext& tc) {
  WriteDispatch d;
  // Unroutable (empty ring / every member down): not a blocked write, but
  // the callback still gets its exactly-once fire.
  if (open(file) == nullptr) {
    if (on_result) on_result(false, 0, 0, kNoNode);
    return d;
  }
  // open() succeeded, so the file is placed and has an acting coordinator.
  const auto [agent, endpoint] = cluster_.coordinator(file);
  const std::vector<NodeId>& members = *cluster_.members_of(file);

  d.coordinator = endpoint;
  const auto k = static_cast<std::uint32_t>(members.size());
  const std::uint32_t w = concern.resolve(k);
  d.effective_w = w;
  ++stats_.coordinator_ops[endpoint];
  const bool failover = endpoint != cluster_.coordinator_endpoint(file);
  if (failover) ++stats_.failover_writes;

  // Sloppy quorum: when fewer than w members are alive, each crashed
  // member the concern still needs is covered by a durable hint at a
  // live stand-in outside the group, credited toward w and drained back
  // through anti-entropy when the member returns.
  std::vector<std::pair<NodeId, NodeId>> hint_plan;  // target -> stand-in
  if (w > 1) {
    std::uint32_t alive = 0;
    for (NodeId m : members) {
      if (cluster_.has_endpoint(m)) ++alive;
    }
    for (NodeId m : members) {
      if (alive + hint_plan.size() >= w) break;
      if (cluster_.has_endpoint(m)) continue;
      const NodeId stand_in = cluster_.stand_in_for(file, m);
      if (stand_in != kNoNode) hint_plan.emplace_back(m, stand_in);
    }
  }
  const auto hinted = static_cast<std::uint32_t>(hint_plan.size());
  d.hinted = hinted;

  PutConcern agent_concern;
  agent_concern.peer_acks_needed = w - 1 > hinted ? w - 1 - hinted : 0;
  if (on_result) {
    // The wrapper credits the hinted stand-ins and names the acting
    // coordinator; acks == 0 still means "never applied".
    agent_concern.on_result = [cb = std::move(on_result), hinted,
                               coordinator = endpoint](
                                  bool satisfied, std::uint32_t acks) {
      cb(satisfied, acks, hinted, coordinator);
    };
  }

  const replica::Update* applied = nullptr;
  const bool accepted = agent->put(std::move(content), meta_delta,
                                   std::move(agent_concern), tc, &applied);
  if (!accepted) {
    // The agent already failed the callback.
    ++stats_.blocked_writes;
    return d;
  }
  ++stats_.writes;
  d.applied = true;
  if (adapt::ConsistencyController* ctl = cluster_.controller()) {
    ctl->on_write(file);
  }
  if (w > 1) ++stats_.wack_writes;

  // Park the hints only after the local apply produced the real update.
  if (applied != nullptr && !hint_plan.empty()) {
    for (const auto& [target, stand_in] : hint_plan) {
      cluster_.queue_hint(file, target, stand_in, *applied);
      ++stats_.hinted_writes;
    }
    ++stats_.sloppy_writes;
  }

  if (obs::Observability* o = observability()) {
    obs::Meter meter = o->cluster_meter();
    meter.add(router_metrics().writes);
    if (failover) meter.add(router_metrics().write_failover);
    if (w > 1) meter.add(router_metrics().write_wack);
    if (hinted > 0) meter.add(router_metrics().write_sloppy);
  }
  return d;
}

obs::Observability* RequestRouter::observability() const {
  return cluster_.obs();
}

double RequestRouter::level(FileId file) const {
  const NodeId acting = cluster_.coordinator(file).second;
  if (acting == kNoNode) return 1.0;
  core::IdeaNode* coordinator = cluster_.replica(file, acting);
  return coordinator == nullptr ? 1.0 : coordinator->current_level();
}

bool RequestRouter::close(FileId file) {
  // close_file() drops this router's per-file state (hints, migration
  // window) as part of the teardown.
  const bool closed = cluster_.close_file(file);
  if (closed) ++stats_.closes;
  return closed;
}

SimDuration RequestRouter::rtt(NodeId origin, NodeId endpoint) const {
  // A client with no declared origin is modeled as co-located with the
  // endpoint it talks to.
  if (origin == kNoNode) origin = endpoint;
  return 2 * cluster_.latency().mean(origin, endpoint);
}

bool RequestRouter::hint_live(const Freshness& f) const {
  return cluster_.sim().now() <= f.at + cluster_.config().freshness_hint_ttl;
}

void RequestRouter::note_freshness(FileId file, NodeId endpoint,
                                   std::uint64_t versions, SimTime at) {
  Freshness& f = hints_[file][endpoint];
  // Hints may arrive out of order (digest vs repair of the same round);
  // versions are monotone per replica, so keep the maximum — but only
  // while the held hint is live.  A decayed hint yields to whatever the
  // next observation says, even a smaller count: the replica may have
  // restarted into a new incarnation whose history starts over.
  if (f.versions > 0 && !hint_live(f)) {
    ++stats_.expired_hints;
    if (obs::Observability* o = observability()) {
      o->cluster_meter().add(router_metrics().hint_expired);
    }
    f = Freshness{versions, at};
  } else if (versions >= f.versions) {
    f = Freshness{versions, at};
  }
  ++stats_.freshness_hints;
}

std::uint64_t RequestRouter::freshness_hint(FileId file,
                                            NodeId endpoint) const {
  const Freshness* f = find_hint(file, endpoint);
  return f == nullptr ? 0 : f->versions;
}

const RequestRouter::Freshness* RequestRouter::find_hint(
    FileId file, NodeId endpoint) const {
  auto fit = hints_.find(file);
  if (fit == hints_.end()) return nullptr;
  auto eit = fit->second.find(endpoint);
  if (eit == fit->second.end()) return nullptr;
  // A hint past the decay horizon no longer describes the replica:
  // treat it as absent (selection falls back to the optimistic lag-0
  // default, and the serve-time bound check stays the safety net).
  return hint_live(eit->second) ? &eit->second : nullptr;
}

void RequestRouter::note_migration(FileId file, SimTime window_end) {
  migration_until_[file] = window_end;
}

bool RequestRouter::in_migration_window(FileId file) const {
  auto it = migration_until_.find(file);
  return it != migration_until_.end() && cluster_.sim().now() < it->second;
}

void RequestRouter::forget_file(FileId file) {
  hints_.erase(file);
  migration_until_.erase(file);
}

void RequestRouter::forget_endpoint(NodeId endpoint) {
  for (auto& [file, by_endpoint] : hints_) {
    if (by_endpoint.erase(endpoint) > 0) ++stats_.expired_hints;
  }
}

NodeId RequestRouter::pick_replica(FileId file,
                                   const std::vector<NodeId>& members,
                                   NodeId coordinator_ep, NodeId origin,
                                   bool use_hints) const {
  // Selection key: (estimated versions behind, RTT, rank).  The lag
  // estimate comes from anti-entropy freshness hints and defaults to 0
  // when nothing was hinted yet — optimistic, but safe: the bounded
  // staleness serve path re-checks the bound exactly.
  std::uint64_t coordinator_total = 0;
  if (use_hints) {
    core::IdeaNode* coordinator = cluster_.replica(file, coordinator_ep);
    if (coordinator != nullptr) {
      coordinator_total = coordinator->store().evv().total_updates();
    }
  }
  NodeId best = kNoNode;
  std::tuple<std::uint64_t, SimDuration, std::uint32_t> best_key{
      UINT64_MAX, 0, 0};
  for (std::uint32_t rank = 0; rank < members.size(); ++rank) {
    const NodeId endpoint = members[rank];
    if (!cluster_.has_endpoint(endpoint)) continue;  // crashed: route around
    std::uint64_t lag = 0;
    if (use_hints && endpoint != coordinator_ep) {
      // A replica nobody has hinted about yet stays at lag 0 (optimistic
      // — the serve path's exact bound check is the safety net); a
      // hinted one is ranked by how far behind its last digest showed it.
      const Freshness* hint = find_hint(file, endpoint);
      if (hint != nullptr && coordinator_total > hint->versions) {
        lag = coordinator_total - hint->versions;
      }
    }
    const std::tuple<std::uint64_t, SimDuration, std::uint32_t> key{
        lag, rtt(origin, endpoint), rank};
    if (key < best_key) {
      best_key = key;
      best = endpoint;
    }
  }
  return best == kNoNode ? members.front() : best;
}

void RequestRouter::measure_staleness(core::IdeaNode& coordinator,
                                      core::IdeaNode& replica,
                                      std::uint64_t& versions,
                                      SimDuration& age) const {
  const replica::ReplicaStore::StalenessProbe probe =
      coordinator.store().staleness_ahead_of(replica.store().evv());
  versions = probe.versions;
  age = 0;
  if (probe.versions > 0) {
    const SimTime now = cluster_.sim().now();
    age = now > probe.oldest_stamp ? now - probe.oldest_stamp : 0;
  }
}

client::ReadResult RequestRouter::serve_single(FileId file, NodeId endpoint,
                                               NodeId origin,
                                               const obs::TraceContext& tc) {
  client::ReadResult res;
  core::IdeaNode* node = cluster_.replica(file, endpoint);
  if (node == nullptr) return res;
  res.updates = node->read_view();
  res.served_by = endpoint;
  res.replicas_contacted = 1;
  res.latency = rtt(origin, endpoint);
  ++stats_.reads_served_by[endpoint];
  if (obs::Observability* o = observability()) {
    o->endpoint_meter(endpoint).add(router_metrics().read_served);
    if (obs::Tracer* tr = o->tracer(); tr != nullptr && tc.active()) {
      // The serve span covers the modeled round trip to the replica.
      const SimTime now = cluster_.sim().now();
      const obs::TraceContext span =
          tr->begin_span(tc, "read.serve", endpoint, file, now);
      tr->end_span(span.span, now + res.latency);
    }
  }
  return res;
}

client::ReadResult RequestRouter::serve_quorum(
    FileId file, const std::vector<NodeId>& members, NodeId coordinator_ep,
    NodeId origin, std::uint32_t r, const obs::TraceContext& tc) {
  // Fan out to the acting coordinator plus the r-1 nearest other live
  // replicas: the write path acks at the coordinator (W = 1), so
  // including it keeps R ∩ W nonempty and the merged view can never miss
  // an acked write.  Crashed members cannot be contacted.
  std::vector<NodeId> targets{coordinator_ep};
  std::vector<NodeId> others;
  for (NodeId e : members) {
    if (e != coordinator_ep && cluster_.has_endpoint(e)) others.push_back(e);
  }
  std::stable_sort(others.begin(), others.end(),
                   [&](NodeId a, NodeId b) {
                     return rtt(origin, a) < rtt(origin, b);
                   });
  for (NodeId e : others) {
    if (targets.size() >= r) break;
    targets.push_back(e);
  }

  client::ReadResult res;
  std::vector<core::IdeaNode*> nodes;
  nodes.reserve(targets.size());
  SimDuration slowest = 0;
  NodeId freshest = targets.front();
  std::uint64_t freshest_total = 0;
  for (NodeId e : targets) {
    core::IdeaNode* node = cluster_.replica(file, e);
    if (node == nullptr) continue;
    nodes.push_back(node);
    slowest = std::max(slowest, rtt(origin, e));
    const std::uint64_t total = node->store().evv().total_updates();
    if (total > freshest_total) {
      freshest_total = total;
      freshest = e;
    }
  }
  if (nodes.empty()) return res;

  // Fast path: the coordinator dominates every contacted replica (the
  // steady state under push replication) — its snapshot IS the merge,
  // shared zero-copy.  Otherwise union the logs, OR-ing invalidation
  // flags, and render canonically.
  core::IdeaNode* coordinator = nodes.front();
  bool coordinator_dominates = true;
  for (core::IdeaNode* node : nodes) {
    if (!coordinator->store().evv().dominates(node->store().evv())) {
      coordinator_dominates = false;
      break;
    }
  }
  // Version counts cannot see invalidation (the update stays in the
  // log), so a contacted replica may know an update is invalidated
  // while the dominating coordinator still shows it live — the exact
  // divergence anti-entropy repair exists to heal.  Such a flag must
  // reach the merged view, so it forces the slow path.
  if (coordinator_dominates) {
    for (std::size_t i = 1; i < nodes.size() && coordinator_dominates;
         ++i) {
      for (const replica::UpdateKey& key :
           nodes[i]->store().invalidated_keys()) {
        const replica::Update* held = coordinator->store().find(key);
        if (held == nullptr || !held->invalidated) {
          coordinator_dominates = false;
          break;
        }
      }
    }
  }
  if (coordinator_dominates) {
    res.updates = coordinator->read_view();
    res.served_by = targets.front();
  } else {
    std::map<replica::UpdateKey, replica::Update> merged;
    for (core::IdeaNode* node : nodes) {
      for (const auto& [key, u] : node->store().log()) {
        auto [it, inserted] = merged.emplace(key, u);
        if (!inserted && u.invalidated) it->second.invalidated = true;
      }
    }
    auto out = std::make_shared<std::vector<replica::Update>>();
    out->reserve(merged.size());
    for (auto& [key, u] : merged) out->push_back(std::move(u));
    std::sort(out->begin(), out->end(), replica::CanonicalOrder{});
    res.updates = std::move(out);
    res.served_by = freshest;
  }
  res.replicas_contacted = static_cast<std::uint32_t>(nodes.size());
  res.latency = slowest;
  // The merge covers the coordinator, so the returned view never lags
  // it: staleness is 0 by construction.
  for (NodeId e : targets) ++stats_.reads_served_by[e];
  if (obs::Observability* o = observability()) {
    for (NodeId e : targets) {
      o->endpoint_meter(e).add(router_metrics().read_served);
    }
    if (obs::Tracer* tr = o->tracer(); tr != nullptr && tc.active()) {
      // One fan-out span per contacted replica, each covering its own
      // modeled round trip.
      const SimTime now = cluster_.sim().now();
      for (NodeId e : targets) {
        const obs::TraceContext span =
            tr->begin_span(tc, "read.fanout", e, file, now);
        tr->end_span(span.span, now + rtt(origin, e));
      }
    }
  }
  return res;
}

client::ReadResult RequestRouter::read(FileId file,
                                       const client::ConsistencyLevel& level,
                                       NodeId origin,
                                       const obs::TraceContext& tc,
                                       const ReadContext& ctx) {
  adapt::ConsistencyController* ctl = cluster_.controller();
  client::ConsistencyLevel effective = level;
  if (ctx.adaptive && ctl != nullptr) {
    effective = ctl->effective_level(file, ctx.tenant, level);
  }
  client::ReadResult res = route_read(file, effective, origin, tc);
  res.effective_level = effective.level;
  if (ctx.adaptive && !(effective == level)) {
    ++stats_.adapted_reads;
    if (obs::Observability* o = observability()) {
      o->cluster_meter().add(router_metrics().read_adapted);
    }
  }
  // Every routed read feeds the controller's per-file contention
  // signals; only adaptive reads enter tenant SLO accounting.
  if (ctl != nullptr && res.ok()) {
    ctl->on_read(file, ctx.tenant, ctx.adaptive, res);
  }
  return res;
}

client::ReadResult RequestRouter::route_read(
    FileId file, const client::ConsistencyLevel& level, NodeId origin,
    const obs::TraceContext& tc) {
  core::IdeaNode* coordinator = open(file);
  if (coordinator == nullptr) return {};
  const std::vector<NodeId>& members = *cluster_.members_of(file);
  // Reads, like writes, go to the acting coordinator: rank 0 unless it
  // crashed, in which case they fail over down the rank order.
  const NodeId coord_ep = cluster_.coordinator(file).second;
  ++stats_.reads;

  obs::Observability* o = observability();
  obs::Meter meter = o == nullptr ? obs::Meter() : o->cluster_meter();
  meter.add(router_metrics().reads);

  // A traced read that observed real staleness parks its context so the
  // anti-entropy rounds healing that staleness join the same span tree.
  const auto record_staleness = [&](std::uint64_t versions,
                                    SimDuration age) {
    if (versions == 0) return;
    meter.observe(router_metrics().staleness_versions, versions);
    meter.observe(router_metrics().staleness_age_us,
                  static_cast<std::uint64_t>(age));
    if (o != nullptr && tc.active()) o->note_repair_trace(file, tc);
  };

  switch (level.level) {
    case client::Level::kStrong: {
      ++stats_.strong_reads;
      ++stats_.coordinator_ops[coord_ep];
      return serve_single(file, coord_ep, origin, tc);
    }

    case client::Level::kEventualNearest: {
      ++stats_.nearest_reads;
      if (in_migration_window(file)) {
        ++stats_.migration_window_reads;
        meter.add(router_metrics().migration_pinned);
        client::ReadResult res = serve_single(file, coord_ep, origin, tc);
        res.migration_window = true;
        return res;
      }
      const NodeId target = pick_replica(file, members, coord_ep, origin,
                                         /*use_hints=*/false);
      client::ReadResult res = serve_single(file, target, origin, tc);
      if (target != coord_ep) {
        core::IdeaNode* node = cluster_.replica(file, target);
        measure_staleness(*coordinator, *node, res.staleness_versions,
                          res.staleness_age);
        record_staleness(res.staleness_versions, res.staleness_age);
      }
      return res;
    }

    case client::Level::kBoundedStaleness: {
      ++stats_.bounded_reads;
      if (in_migration_window(file)) {
        ++stats_.migration_window_reads;
        meter.add(router_metrics().migration_pinned);
        client::ReadResult res = serve_single(file, coord_ep, origin, tc);
        res.migration_window = true;
        return res;
      }
      const NodeId candidate = pick_replica(file, members, coord_ep, origin,
                                            /*use_hints=*/true);
      // Age of the freshness hint that informed this selection — how
      // stale the router's own routing input was at use time.
      if (candidate != coord_ep && meter.enabled()) {
        if (const Freshness* hint = find_hint(file, candidate)) {
          const SimTime now = cluster_.sim().now();
          meter.observe(router_metrics().hint_age_us,
                        static_cast<std::uint64_t>(
                            now > hint->at ? now - hint->at : 0));
        }
      }
      if (candidate == coord_ep) {
        ++stats_.coordinator_ops[coord_ep];
        return serve_single(file, coord_ep, origin, tc);
      }
      core::IdeaNode* node = cluster_.replica(file, candidate);
      std::uint64_t versions = 0;
      SimDuration age = 0;
      measure_staleness(*coordinator, *node, versions, age);
      if (versions > level.max_versions ||
          (level.max_age > 0 && age > level.max_age)) {
        // Bound exceeded: escalate.  The client pays for the failed
        // probe plus the coordinator round trip.
        ++stats_.bounded_escalations;
        ++stats_.coordinator_ops[coord_ep];
        meter.add(router_metrics().escalated);
        record_staleness(versions, age);
        if (o != nullptr && tc.active() && o->tracer() != nullptr) {
          o->tracer()->instant(tc, "read.escalate", candidate, file,
                               cluster_.sim().now());
        }
        client::ReadResult res = serve_single(file, coord_ep, origin, tc);
        res.latency += rtt(origin, candidate);
        res.escalated = true;
        return res;
      }
      client::ReadResult res = serve_single(file, candidate, origin, tc);
      res.staleness_versions = versions;
      res.staleness_age = age;
      record_staleness(versions, age);
      return res;
    }

    case client::Level::kQuorum: {
      ++stats_.quorum_reads;
      const auto k = static_cast<std::uint32_t>(members.size());
      std::uint32_t r = level.quorum_r == 0 ? k / 2 + 1 : level.quorum_r;
      r = std::min(std::max<std::uint32_t>(r, 1), k);
      ++stats_.coordinator_ops[coord_ep];
      client::ReadResult res =
          serve_quorum(file, members, coord_ep, origin, r, tc);
      res.migration_window = in_migration_window(file);
      return res;
    }
  }
  return {};
}

}  // namespace idea::shard
