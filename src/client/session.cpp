#include "client/session.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "obs/observability.hpp"
#include "shard/sharded_cluster.hpp"

namespace idea::client {
namespace {

/// Per-consistency-level metric ids, indexed by Level (see consistency.hpp
/// for the enum order the name arrays mirror).
obs::MetricId read_latency_metric(Level level) {
  static const std::array<obs::MetricId, 4> ids = {
      obs::MetricId::intern("session.read.latency_us.strong"),
      obs::MetricId::intern("session.read.latency_us.bounded"),
      obs::MetricId::intern("session.read.latency_us.eventual"),
      obs::MetricId::intern("session.read.latency_us.quorum"),
  };
  return ids[static_cast<std::size_t>(level)];
}

obs::MetricId read_staleness_metric(Level level) {
  static const std::array<obs::MetricId, 4> ids = {
      obs::MetricId::intern("session.read.staleness.strong"),
      obs::MetricId::intern("session.read.staleness.bounded"),
      obs::MetricId::intern("session.read.staleness.eventual"),
      obs::MetricId::intern("session.read.staleness.quorum"),
  };
  return ids[static_cast<std::size_t>(level)];
}

/// Session-level metric ids, interned once per process.
struct SessionMetrics {
  obs::MetricId reads = obs::MetricId::intern("session.reads");
  obs::MetricId puts = obs::MetricId::intern("session.puts");
  obs::MetricId escalated = obs::MetricId::intern("session.read.escalated");
  obs::MetricId stale = obs::MetricId::intern("session.read.stale");
  obs::MetricId put_latency = obs::MetricId::intern("session.put.latency_us");
  obs::MetricId wack_latency =
      obs::MetricId::intern("session.put.wack_latency_us");
  obs::MetricId wack_failed =
      obs::MetricId::intern("session.put.wack_failed");
  obs::MetricId cache_hits = obs::MetricId::intern("session.read.cache_hits");
};

const SessionMetrics& session_metrics() {
  static const SessionMetrics m;
  return m;
}

}  // namespace

ClientSession::ClientSession(shard::ShardedCluster& cluster,
                             SessionOptions options)
    : cluster_(cluster),
      options_(options),
      stats_(std::make_shared<SessionStats>()) {
  if (options_.adaptive && options_.declare_slo) {
    if (adapt::ConsistencyController* ctl = cluster_.controller()) {
      ctl->declare_slo(options_.tenant, options_.slo);
    }
  }
}

OpHandle<WriteAck> ClientSession::put(FileId file, std::string content,
                                      double meta_delta) {
  return put(file, std::move(content), meta_delta, options_.write_concern);
}

OpHandle<WriteAck> ClientSession::put(FileId file, std::string content,
                                      double meta_delta,
                                      const WriteConcern& concern) {
  // Read-your-writes: the session's own write makes any cached snapshot
  // of the file unservable (it cannot contain this update).
  cache_.erase(file);

  obs::Observability* o = cluster_.obs();
  obs::TraceContext tc;
  if (o != nullptr && o->tracer() != nullptr) {
    tc = o->tracer()->start_trace("session.put", options_.origin, file,
                                  cluster_.sim().now());
  }

  // Every put takes the write-concern path.  The handle resolves when
  // the acting coordinator confirms w replica applies (hinted stand-ins
  // counting), or when the replication budget gives up.  The callback
  // fires exactly once: synchronously, inside write_with_concern, under
  // the default w = 1 or when the write is unroutable.
  const bool wack = !(concern == WriteConcern::one());
  if (wack) ++stats_->wack_puts;
  OpHandle<WriteAck> handle =
      OpHandle<WriteAck>::pending(cluster_.sim(), WriteAck{});
  shard::ShardedCluster* cluster = &cluster_;
  cluster_.router().write_with_concern(
      file, std::move(content), meta_delta, concern,
      [handle, wack, stats = stats_, cluster, o, tc, origin = options_.origin](
          bool satisfied, std::uint32_t acks, std::uint32_t hinted,
          NodeId coordinator) {
        WriteAck& ack = handle.mutable_value();
        ack.applied = acks >= 1;
        ack.coordinator = coordinator;
        ack.acks = acks;
        ack.hinted = hinted;
        ack.w_satisfied = satisfied;
        ack.applied ? ++stats->puts : ++stats->blocked_puts;
        if (wack && !satisfied) ++stats->wack_failed_puts;
        if (hinted > 0) ++stats->hinted_puts;
        // Client-observed latency: the replication time already elapsed
        // on the sim clock, plus the ack's trip back to the client —
        // never less than a plain round trip (the synchronous case,
        // where nothing has elapsed yet).  On failure the router may be
        // mid-teardown, so skip the distance model; resolve() clamps
        // the latency up to the elapsed give-up budget.
        SimDuration latency = 0;
        if (satisfied && coordinator != kNoNode) {
          const SimDuration rtt = cluster->router().rtt(origin, coordinator);
          const SimDuration elapsed =
              cluster->sim().now() - handle.issued_at();
          latency = std::max(rtt, elapsed + rtt / 2);
        }
        handle.resolve(latency, satisfied);
        if (o != nullptr) {
          const SessionMetrics& m = session_metrics();
          obs::Meter meter = o->cluster_meter();
          if (ack.applied) meter.add(m.puts);
          if (satisfied) {
            meter.observe(wack ? m.wack_latency : m.put_latency,
                          static_cast<std::uint64_t>(handle.latency()));
          } else if (wack) {
            meter.add(m.wack_failed);
          }
        }
        if (tc.active()) {
          o->tracer()->end_span(tc.span, handle.ready_at());
        }
      },
      tc);
  return handle;
}

OpHandle<ReadResult> ClientSession::read(FileId file) {
  return read(file, options_.level);
}

OpHandle<ReadResult> ClientSession::read(FileId file,
                                         const ConsistencyLevel& level) {
  obs::Observability* o = cluster_.obs();
  // Session read cache: serve a repeat read from the last snapshot with
  // zero router traffic iff the snapshot is *provably* inside the
  // declared bound.  Only the age bound is provable without contacting
  // the cluster — a cached view's staleness age grows exactly with the
  // sim clock — so hits require BoundedStaleness with max_age > 0.  The
  // snapshot's versions lag, as measured when it was served, must fit
  // the bound too: a read at another level may have cached it.
  if (options_.cache_reads && level.level == Level::kBoundedStaleness &&
      level.max_age > 0) {
    auto it = cache_.find(file);
    if (it != cache_.end()) {
      const SimTime now = cluster_.sim().now();
      const SimDuration age = it->second.snapshot.staleness_age +
                              (now - it->second.served_at);
      if (age <= level.max_age &&
          it->second.snapshot.staleness_versions <= level.max_versions) {
        ++stats_->reads;
        ++stats_->cache_hits;
        ReadResult result = it->second.snapshot;
        result.staleness_age = age;
        result.latency = 0;  // local, no routed round trip
        stats_->staleness_versions_total += result.staleness_versions;
        if (o != nullptr) {
          obs::Meter meter = o->cluster_meter();
          meter.add(session_metrics().reads);
          meter.add(session_metrics().cache_hits);
          // A hit is a real client-observed read: latency 0, staleness
          // as measured at the original serve — recorded into the same
          // per-level histograms as routed reads so operators (and the
          // bench) see the cache's effect, not a gap.
          meter.observe(read_latency_metric(level.level), 0);
          meter.observe(read_staleness_metric(level.level),
                        result.staleness_versions);
          if (result.staleness_versions > 0) {
            meter.add(session_metrics().stale);
          }
        }
        return OpHandle<ReadResult>(cluster_.sim(), std::move(result),
                                    /*latency=*/0, /*ok=*/true);
      }
      // Outside the declared bound: the snapshot can never be served
      // under this level again (its age only grows, its lag never
      // shrinks).
      ++stats_->cache_expiries;
      cache_.erase(it);
    }
  }
  obs::TraceContext tc;
  if (o != nullptr && o->tracer() != nullptr) {
    tc = o->tracer()->start_trace("session.read", options_.origin, file,
                                  cluster_.sim().now());
  }

  const shard::ReadContext ctx{options_.adaptive, options_.tenant};
  ReadResult result =
      cluster_.router().read(file, level, options_.origin, tc, ctx);
  const bool ok = result.ok();
  ++stats_->reads;
  if (result.escalated) ++stats_->escalated_reads;
  stats_->staleness_versions_total += result.staleness_versions;
  stats_->read_latency_total += result.latency;
  if (options_.cache_reads && ok) {
    cache_[file] = CachedRead{result, cluster_.sim().now()};
  }
  if (o != nullptr && ok) {
    obs::Meter meter = o->cluster_meter();
    meter.add(session_metrics().reads);
    // Bin by the level the read was actually served at: identical to the
    // declared level for static sessions, the controller's override for
    // adaptive ones (so the per-level histograms stay truthful).
    meter.observe(read_latency_metric(result.effective_level),
                  static_cast<std::uint64_t>(result.latency));
    meter.observe(read_staleness_metric(result.effective_level),
                  result.staleness_versions);
    if (result.escalated) meter.add(session_metrics().escalated);
    if (result.staleness_versions > 0) meter.add(session_metrics().stale);
  }
  // The root span covers the whole client-observed operation: issued now,
  // completed when the modeled round trips are over.
  if (tc.active()) {
    o->tracer()->end_span(tc.span, cluster_.sim().now() + result.latency);
  }
  const SimDuration latency = result.latency;
  return OpHandle<ReadResult>(cluster_.sim(), std::move(result), latency, ok);
}

bool ClientSession::open(FileId file) {
  return cluster_.router().open(file) != nullptr;
}

bool ClientSession::close(FileId file) {
  cache_.erase(file);
  return cluster_.router().close(file);
}

}  // namespace idea::client
