#include "adapt/controller.hpp"

#include <cinttypes>
#include <cstdio>

#include "util/ids.hpp"

namespace idea::adapt {

namespace {

/// Interned once; recording is an array index (see metrics.hpp).
struct ControllerMetrics {
  obs::MetricId ticks = obs::MetricId::intern("adapt.ticks");
  obs::MetricId decisions = obs::MetricId::intern("adapt.decisions");
  obs::MetricId escalations = obs::MetricId::intern("adapt.escalations");
  obs::MetricId step_downs = obs::MetricId::intern("adapt.step_downs");
  obs::MetricId relaxations = obs::MetricId::intern("adapt.relaxations");
  obs::MetricId rewarms = obs::MetricId::intern("adapt.rewarms");
  obs::MetricId renegotiations =
      obs::MetricId::intern("adapt.renegotiations");
  obs::MetricId overridden = obs::MetricId::intern("adapt.files.overridden");
  obs::MetricId window_writes =
      obs::MetricId::intern("adapt.window.writes_per_file");
};

const ControllerMetrics& metrics() {
  static const ControllerMetrics m;
  return m;
}

const char* target_name(ConsistencyController::Target t) {
  switch (t) {
    case ConsistencyController::Target::kDeclared:
      return "declared";
    case ConsistencyController::Target::kEventual:
      return "eventual";
    case ConsistencyController::Target::kStrong:
      return "strong";
    case ConsistencyController::Target::kQuorum:
      return "quorum";
  }
  return "?";
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

std::string Slo::describe() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "slo{p99_staleness<=%" PRIu64 "v p95_read<=%" PRId64 "us}",
                p99_staleness_versions,
                static_cast<std::int64_t>(p95_read_latency));
  return buf;
}

ConsistencyController::ConsistencyController(sim::Simulator& sim,
                                             ControllerConfig config,
                                             obs::Observability* obs)
    : sim_(sim), config_(config), obs_(obs) {}

void ConsistencyController::start() {
  if (running_) return;
  running_ = true;
  tick_event_ =
      sim_.schedule_periodic(config_.period, [this] { tick(); });
}

void ConsistencyController::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(tick_event_);
  tick_event_ = sim::kInvalidEvent;
}

void ConsistencyController::declare_slo(std::uint32_t tenant,
                                        const Slo& slo) {
  TenantState& t = tenants_[tenant];
  t.slo = slo;
  t.declared = true;
  decide("slo", -1, tenant, slo.describe());
}

void ConsistencyController::on_read(FileId file, std::uint32_t tenant,
                                    bool adaptive,
                                    const client::ReadResult& result) {
  ++stats_.reads_observed;
  FileState& f = files_[file];
  ++f.reads;
  if (result.escalated) ++f.escalations;
  if (result.staleness_versions > 0) ++f.stale_reads;
  if (!adaptive) return;
  TenantState& t = tenants_[tenant];
  if (!t.declared) return;
  ++t.reads;
  if (result.latency > t.slo.p95_read_latency) ++t.over_latency;
  if (result.staleness_versions > t.slo.p99_staleness_versions) {
    ++t.over_staleness;
  }
}

void ConsistencyController::on_write(FileId file) {
  ++stats_.writes_observed;
  FileState& f = files_[file];
  ++f.writes;
  // Rewarm immediately, not at the next tick: an Eventual-relaxed file
  // has no staleness bound, so every read between a renewed write and
  // the next window boundary could serve arbitrarily stale data.  The
  // declared level's bound takes effect on the very next read instead.
  if (f.target == Target::kEventual) {
    f.target = Target::kDeclared;
    f.idle_windows = 0;
    ++stats_.rewarms;
    if (obs_ != nullptr) obs_->cluster().add(metrics().rewarms);
    decide("rewarm", static_cast<std::int64_t>(file), 0, "write");
  }
}

client::ConsistencyLevel ConsistencyController::effective_level(
    FileId file, std::uint32_t tenant,
    const client::ConsistencyLevel& declared) const {
  auto it = files_.find(file);
  const Target target =
      it == files_.end() ? Target::kDeclared : it->second.target;
  switch (target) {
    case Target::kStrong:
      return client::ConsistencyLevel::strong();
    case Target::kQuorum:
      return client::ConsistencyLevel::quorum(config_.quorum_r);
    case Target::kEventual:
      return client::ConsistencyLevel::eventual_nearest();
    case Target::kDeclared:
      break;
  }
  if (declared.level == client::Level::kBoundedStaleness) {
    auto t = tenants_.find(tenant);
    if (t != tenants_.end() && t->second.shift != 0) {
      const std::int64_t shifted =
          static_cast<std::int64_t>(declared.max_versions) + t->second.shift;
      const std::uint64_t bound =
          shifted < 0 ? 0
                      : (static_cast<std::uint64_t>(shifted) > config_.max_bound
                             ? config_.max_bound
                             : static_cast<std::uint64_t>(shifted));
      return client::ConsistencyLevel::bounded_staleness(bound,
                                                         declared.max_age);
    }
  }
  return declared;
}

ConsistencyController::Target ConsistencyController::target_of(
    FileId file) const {
  auto it = files_.find(file);
  return it == files_.end() ? Target::kDeclared : it->second.target;
}

std::int64_t ConsistencyController::bound_shift(std::uint32_t tenant) const {
  auto it = tenants_.find(tenant);
  return it == tenants_.end() ? 0 : it->second.shift;
}

void ConsistencyController::tick() {
  ++stats_.ticks;
  obs::Meter meter =
      obs_ != nullptr ? obs_->cluster_meter() : obs::Meter();
  meter.add(metrics().ticks);

  const Target hot_target =
      config_.escalate_to_quorum ? Target::kQuorum : Target::kStrong;
  std::uint64_t overridden = 0;

  for (auto& [file, f] : files_) {
    meter.observe(metrics().window_writes, f.writes);
    // Contention evidence: enough writes this window AND router
    // escalations or stale policy reads.
    const bool hot = f.writes >= config_.hot_writes;
    const bool contended =
        hot && (f.escalations >= config_.escalation_trigger ||
                f.stale_reads > 0);

    f.idle_windows = f.writes == 0 ? f.idle_windows + 1 : 0;
    // An escalated file served Strong/Quorum produces no escalations or
    // stale reads by construction, so "calm" must also require the write
    // pressure to have subsided — otherwise every escalation would step
    // down after hold_windows and immediately re-escalate.
    const bool escalated =
        f.target == Target::kStrong || f.target == Target::kQuorum;
    f.calm_windows =
        (contended || (escalated && hot)) ? 0 : f.calm_windows + 1;

    if (contended && f.target != hot_target) {
      char detail[96];
      std::snprintf(detail, sizeof(detail),
                    "%s->%s w=%u esc=%u stale=%u", target_name(f.target),
                    target_name(hot_target), f.writes, f.escalations,
                    f.stale_reads);
      f.target = hot_target;
      ++stats_.escalations;
      meter.add(metrics().escalations);
      decide("escalate", static_cast<std::int64_t>(file), 0, detail);
      // Hand the escalation to the trace tree: if a traced read parked a
      // repair trace for this file, tag the adaptation decision onto it.
      if (obs_ != nullptr && obs_->tracer() != nullptr) {
        const obs::TraceContext parked = obs_->peek_repair_trace(file);
        if (parked.active()) {
          obs_->tracer()->instant(parked, "adapt.escalate", kNoNode, file,
                                  sim_.now());
        }
      }
    } else if ((f.target == Target::kStrong || f.target == Target::kQuorum) &&
               f.calm_windows >= config_.hold_windows) {
      f.target = Target::kDeclared;
      ++stats_.step_downs;
      meter.add(metrics().step_downs);
      decide("step_down", static_cast<std::int64_t>(file), 0, "calm");
    } else if (f.target == Target::kDeclared &&
               f.idle_windows >= config_.cold_windows && f.reads > 0 &&
               f.escalations == 0 && f.stale_reads == 0) {
      // Relax requires the window to be *quiet*, not just write-free:
      // right after a loss window an idle file's replicas can still lag
      // (anti-entropy has not healed them yet), and Eventual has no
      // bound to catch that.  Escalations/stale reads in the window are
      // exactly that evidence, so relaxation waits for repair.
      f.target = Target::kEventual;
      ++stats_.relaxations;
      meter.add(metrics().relaxations);
      decide("relax", static_cast<std::int64_t>(file), 0, "cold");
    }

    if (f.target != Target::kDeclared) ++overridden;
    f.writes = 0;
    f.reads = 0;
    f.escalations = 0;
    f.stale_reads = 0;
  }
  meter.set_gauge(metrics().overridden,
                  static_cast<std::int64_t>(overridden));

  for (auto& [tenant, t] : tenants_) {
    if (!t.declared || t.reads == 0) continue;
    const double reads = static_cast<double>(t.reads);
    const double stale_frac = static_cast<double>(t.over_staleness) / reads;
    const double lat_frac = static_cast<double>(t.over_latency) / reads;
    std::int64_t step = 0;
    // Staleness pressure wins ties: the bound exists to cap staleness,
    // and tightening is the only lever that restores it.
    if (stale_frac > config_.staleness_pressure) {
      step = -1;
    } else if (lat_frac > config_.latency_pressure) {
      step = 1;
    }
    if (step != 0) {
      const std::int64_t limit =
          static_cast<std::int64_t>(config_.max_bound);
      std::int64_t next = t.shift + step;
      if (next > limit) next = limit;
      if (next < -limit) next = -limit;
      if (next != t.shift) {
        char detail[96];
        std::snprintf(detail, sizeof(detail),
                      "shift=%+" PRId64 " stale=%.3f lat=%.3f", next,
                      stale_frac, lat_frac);
        t.shift = next;
        ++stats_.renegotiations;
        meter.add(metrics().renegotiations);
        decide("renegotiate", -1, tenant, detail);
      }
    }
    t.reads = 0;
    t.over_latency = 0;
    t.over_staleness = 0;
  }
}

void ConsistencyController::decide(const char* verb, std::int64_t file,
                                   std::uint32_t tenant,
                                   const std::string& detail) {
  char line[192];
  std::snprintf(line, sizeof(line),
                "t=%" PRId64 " %s file=%" PRId64 " tenant=%u %s",
                static_cast<std::int64_t>(sim_.now()), verb, file, tenant,
                detail.c_str());
  log_.emplace_back(line);
  ++stats_.decisions;
  if (obs_ != nullptr) obs_->cluster().add(metrics().decisions);
}

std::uint64_t ConsistencyController::decision_digest() const {
  std::uint64_t digest = 0x9E3779B97F4A7C15ull;
  for (const std::string& line : log_) {
    digest = mix64(digest ^ fnv1a(line));
  }
  return digest;
}

}  // namespace idea::adapt
