#include "shard/request_router.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
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

FileGroup* RequestRouter::open(FileId file) {
  const std::size_t before = cluster_.placed_files();
  FileGroup* group = cluster_.ensure_open(file);
  if (group == nullptr || group->acting_rank() == group->ranks.size()) {
    return nullptr;
  }
  if (cluster_.placed_files() > before) ++stats_.opens;
  return group;
}

RequestRouter::WriteDispatch RequestRouter::write_with_concern(
    FileId file, std::string content, double meta_delta,
    const client::WriteConcern& concern, WriteAckCallback on_result,
    const obs::TraceContext& tc) {
  WriteDispatch d;
  // Unroutable (empty ring / every member down): the callback still gets
  // its exactly-once fire.
  FileGroup* group = open(file);
  if (group == nullptr) {
    if (on_result) on_result(false, 0, 0, kNoNode);
    return d;
  }
  const std::uint32_t acting = group->acting_rank();
  ReplicaSyncAgent* agent = group->ranks[acting].sync.get();
  const NodeId endpoint = group->members[acting];
  const std::vector<NodeId>& members = group->members;

  d.coordinator = endpoint;
  const auto k = static_cast<std::uint32_t>(members.size());
  const std::uint32_t w = concern.resolve(k);
  d.effective_w = w;
  const bool failover = acting != 0;
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

  const replica::Update& applied = agent->put(
      std::move(content), meta_delta, std::move(agent_concern), tc);
  ++stats_.writes;
  d.applied = true;
  if (adapt::ConsistencyController* ctl = cluster_.controller()) {
    ctl->on_write(file);
  }
  if (w > 1) ++stats_.wack_writes;

  // Park the hints only after the local apply produced the real update.
  if (!hint_plan.empty()) {
    for (const auto& [target, stand_in] : hint_plan) {
      cluster_.queue_hint(file, target, stand_in, applied);
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

bool RequestRouter::close(FileId file) {
  return cluster_.close_file(file);
}

SimDuration RequestRouter::rtt(NodeId origin, NodeId endpoint) const {
  // A client with no declared origin is modeled as co-located with the
  // endpoint it talks to.
  if (origin == kNoNode) origin = endpoint;
  return 2 * cluster_.latency().mean(origin, endpoint);
}

bool RequestRouter::hint_live(const FreshnessHint& hint) const {
  return hint.known &&
         cluster_.sim().now() <= hint.at + cluster_.config().freshness_hint_ttl;
}

void RequestRouter::note_freshness(FreshnessHint& hint,
                                   std::uint64_t versions, SimTime at) {
  // Hints may arrive out of order (digest vs repair of the same round);
  // versions are monotone per replica, so keep the maximum — but only
  // while the held hint is live.  A decayed hint yields to whatever the
  // next observation says, even a smaller count: the replica may have
  // restarted into a new incarnation whose history starts over.
  if (hint.versions > 0 && !hint_live(hint)) {
    ++stats_.expired_hints;
    if (obs::Observability* o = observability()) {
      o->cluster_meter().add(router_metrics().hint_expired);
    }
    hint = FreshnessHint{versions, at, true};
  } else if (versions >= hint.versions) {
    hint = FreshnessHint{versions, at, true};
  }
  ++stats_.freshness_hints;
}

void RequestRouter::forget_hint(FreshnessHint& hint) {
  if (hint.known) ++stats_.expired_hints;
  hint = FreshnessHint{};
}

void RequestRouter::note_freshness(FileId file, NodeId endpoint,
                                   std::uint64_t versions, SimTime at) {
  FileGroup* group = cluster_.group(file);
  if (group == nullptr) return;
  const std::uint32_t rank = group->rank_of(endpoint);
  if (rank < group->ranks.size()) {
    note_freshness(group->ranks[rank].hint, versions, at);
  }
}

std::uint64_t RequestRouter::freshness_hint(FileId file,
                                            NodeId endpoint) const {
  const FileGroup* group = cluster_.group(file);
  if (group == nullptr) return 0;
  const std::uint32_t rank = group->rank_of(endpoint);
  if (rank == group->ranks.size()) return 0;
  const FreshnessHint& hint = group->ranks[rank].hint;
  // A hint past the decay horizon no longer describes the replica.
  return hint_live(hint) ? hint.versions : 0;
}

bool RequestRouter::in_migration_window(FileId file) const {
  const FileGroup* group = cluster_.group(file);
  return group != nullptr && cluster_.sim().now() < group->migration_until;
}

std::uint32_t RequestRouter::pick_replica(const FileGroup& group,
                                          std::uint32_t acting,
                                          NodeId origin,
                                          bool use_hints) const {
  // Selection key: (estimated versions behind, RTT, rank).  The lag
  // estimate comes from anti-entropy freshness hints and defaults to 0
  // when nothing was hinted yet — optimistic, but safe: the bounded
  // staleness serve path re-checks the bound exactly.
  const std::uint64_t coordinator_total =
      use_hints ? group.ranks[acting].node->store().evv().total_updates()
                : 0;
  std::uint32_t best = acting;
  std::tuple<std::uint64_t, SimDuration, std::uint32_t> best_key{
      UINT64_MAX, 0, 0};
  for (std::uint32_t rank = 0; rank < group.ranks.size(); ++rank) {
    const GroupRank& r = group.ranks[rank];
    if (r.node == nullptr) continue;  // crashed: route around
    std::uint64_t lag = 0;
    if (use_hints && rank != acting) {
      // A replica nobody has hinted about yet (or whose hint decayed)
      // stays at lag 0 (optimistic — the serve path's exact bound check
      // is the safety net); a hinted one is ranked by how far behind its
      // last digest showed it.
      if (hint_live(r.hint) && coordinator_total > r.hint.versions) {
        lag = coordinator_total - r.hint.versions;
      }
    }
    const std::tuple<std::uint64_t, SimDuration, std::uint32_t> key{
        lag, rtt(origin, group.members[rank]), rank};
    if (key < best_key) {
      best_key = key;
      best = rank;
    }
  }
  return best;
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

client::ReadResult RequestRouter::serve_single(
    FileId file, const FileGroup& group, std::uint32_t rank, NodeId origin,
    const obs::TraceContext& tc) {
  client::ReadResult res;
  core::IdeaNode* node = group.ranks[rank].node.get();
  if (node == nullptr) return res;
  const NodeId endpoint = group.members[rank];
  res.updates = node->store().contents_snapshot();
  res.served_by = endpoint;
  res.replicas_contacted = 1;
  res.latency = rtt(origin, endpoint);
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
    FileId file, const FileGroup& group, std::uint32_t acting, NodeId origin,
    std::uint32_t r, const obs::TraceContext& tc) {
  // Fan out to the acting coordinator plus the r-1 nearest other live
  // replicas: the write path acks at the coordinator (W = 1), so
  // including it keeps R ∩ W nonempty and the merged view can never miss
  // an acked write.  Crashed members cannot be contacted.
  const std::vector<NodeId>& members = group.members;
  std::vector<std::uint32_t> targets{acting};
  std::vector<std::uint32_t> others;
  for (std::uint32_t rank = 0; rank < members.size(); ++rank) {
    if (rank != acting && group.ranks[rank].node != nullptr) {
      others.push_back(rank);
    }
  }
  std::stable_sort(others.begin(), others.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return rtt(origin, members[a]) < rtt(origin, members[b]);
                   });
  for (std::uint32_t rank : others) {
    if (targets.size() >= r) break;
    targets.push_back(rank);
  }

  client::ReadResult res;
  std::vector<core::IdeaNode*> nodes;
  nodes.reserve(targets.size());
  SimDuration slowest = 0;
  NodeId freshest = members[acting];
  std::uint64_t freshest_total = 0;
  for (std::uint32_t rank : targets) {
    core::IdeaNode* node = group.ranks[rank].node.get();
    nodes.push_back(node);
    slowest = std::max(slowest, rtt(origin, members[rank]));
    const std::uint64_t total = node->store().evv().total_updates();
    if (total > freshest_total) {
      freshest_total = total;
      freshest = members[rank];
    }
  }

  // Fast path: the coordinator dominates every contacted replica (the
  // steady state under push replication) — its view IS the merge,
  // shared zero-copy.  Otherwise union the views, which are canonical
  // already.
  core::IdeaNode* coordinator = nodes.front();
  bool coordinator_dominates = true;
  for (core::IdeaNode* node : nodes) {
    if (!coordinator->store().evv().dominates(node->store().evv())) {
      coordinator_dominates = false;
      break;
    }
  }
  if (coordinator_dominates) {
    res.updates = coordinator->store().contents_snapshot();
    res.served_by = members[acting];
  } else {
    // A writer fixes its update's stamp, so copies of one update held by
    // several replicas are equivalent in CanonicalOrder, and set_union
    // keeps the copy merged first: the coordinator's.
    std::vector<replica::Update> merged;
    for (core::IdeaNode* node : nodes) {
      const auto view = node->store().contents_snapshot();
      std::vector<replica::Update> next;
      next.reserve(merged.size() + view->size());
      std::set_union(std::make_move_iterator(merged.begin()),
                     std::make_move_iterator(merged.end()), view->begin(),
                     view->end(), std::back_inserter(next),
                     replica::CanonicalOrder{});
      merged = std::move(next);
    }
    res.updates =
        std::make_shared<const std::vector<replica::Update>>(std::move(merged));
    res.served_by = freshest;
  }
  res.replicas_contacted = static_cast<std::uint32_t>(nodes.size());
  res.latency = slowest;
  // The merge covers the coordinator, so the returned view never lags
  // it: staleness is 0 by construction.
  if (obs::Observability* o = observability()) {
    for (std::uint32_t rank : targets) {
      o->endpoint_meter(members[rank]).add(router_metrics().read_served);
    }
    if (obs::Tracer* tr = o->tracer(); tr != nullptr && tc.active()) {
      // One fan-out span per contacted replica, each covering its own
      // modeled round trip.
      const SimTime now = cluster_.sim().now();
      for (std::uint32_t rank : targets) {
        const NodeId e = members[rank];
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
  const FileGroup* group = open(file);
  if (group == nullptr) return {};
  // Reads, like writes, go to the acting coordinator: rank 0 unless it
  // crashed, in which case they fail over down the rank order.
  const std::uint32_t acting = group->acting_rank();
  core::IdeaNode& coordinator = *group->ranks[acting].node;
  const bool migrating = cluster_.sim().now() < group->migration_until;
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
      return serve_single(file, *group, acting, origin, tc);
    }

    case client::Level::kEventualNearest: {
      ++stats_.nearest_reads;
      if (migrating) {
        ++stats_.migration_window_reads;
        meter.add(router_metrics().migration_pinned);
        client::ReadResult res = serve_single(file, *group, acting, origin, tc);
        res.migration_window = true;
        return res;
      }
      const std::uint32_t target =
          pick_replica(*group, acting, origin, /*use_hints=*/false);
      client::ReadResult res = serve_single(file, *group, target, origin, tc);
      if (target != acting) {
        measure_staleness(coordinator, *group->ranks[target].node,
                          res.staleness_versions, res.staleness_age);
        record_staleness(res.staleness_versions, res.staleness_age);
      }
      return res;
    }

    case client::Level::kBoundedStaleness: {
      ++stats_.bounded_reads;
      if (migrating) {
        ++stats_.migration_window_reads;
        meter.add(router_metrics().migration_pinned);
        client::ReadResult res = serve_single(file, *group, acting, origin, tc);
        res.migration_window = true;
        return res;
      }
      const std::uint32_t candidate =
          pick_replica(*group, acting, origin, /*use_hints=*/true);
      const GroupRank& picked = group->ranks[candidate];
      // Age of the freshness hint that informed this selection — how
      // stale the router's own routing input was at use time.
      if (candidate != acting && meter.enabled() && hint_live(picked.hint)) {
        const SimTime now = cluster_.sim().now();
        meter.observe(router_metrics().hint_age_us,
                      static_cast<std::uint64_t>(
                          now > picked.hint.at ? now - picked.hint.at : 0));
      }
      if (candidate == acting) {
        return serve_single(file, *group, acting, origin, tc);
      }
      std::uint64_t versions = 0;
      SimDuration age = 0;
      measure_staleness(coordinator, *picked.node, versions, age);
      if (versions > level.max_versions ||
          (level.max_age > 0 && age > level.max_age)) {
        // Bound exceeded: escalate.  The client pays for the failed
        // probe plus the coordinator round trip.
        ++stats_.bounded_escalations;
        meter.add(router_metrics().escalated);
        record_staleness(versions, age);
        const NodeId candidate_ep = group->members[candidate];
        if (o != nullptr && tc.active() && o->tracer() != nullptr) {
          o->tracer()->instant(tc, "read.escalate", candidate_ep, file,
                               cluster_.sim().now());
        }
        client::ReadResult res = serve_single(file, *group, acting, origin, tc);
        res.latency += rtt(origin, candidate_ep);
        res.escalated = true;
        return res;
      }
      client::ReadResult res =
          serve_single(file, *group, candidate, origin, tc);
      res.staleness_versions = versions;
      res.staleness_age = age;
      record_staleness(versions, age);
      return res;
    }

    case client::Level::kQuorum: {
      ++stats_.quorum_reads;
      const auto k = static_cast<std::uint32_t>(group->members.size());
      std::uint32_t r = level.quorum_r == 0 ? k / 2 + 1 : level.quorum_r;
      r = std::min(std::max<std::uint32_t>(r, 1), k);
      client::ReadResult res =
          serve_quorum(file, *group, acting, origin, r, tc);
      res.migration_window = migrating;
      return res;
    }
  }
  return {};
}

}  // namespace idea::shard
