#include "shard/replica_sync.hpp"

#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "util/log.hpp"

namespace idea::shard {

const net::MsgType ReplicaSyncAgent::kReplicateType =
    net::MsgType::intern("shard.replicate");
const net::MsgType ReplicaSyncAgent::kDigestType =
    net::MsgType::intern("shard.digest");
const net::MsgType ReplicaSyncAgent::kRepairType =
    net::MsgType::intern("shard.repair");
const net::MsgType ReplicaSyncAgent::kMigrateType =
    net::MsgType::intern("shard.migrate");
const net::MsgType ReplicaSyncAgent::kAckType =
    net::MsgType::intern("shard.ack");

namespace {

std::uint32_t batch_wire_bytes(const std::vector<replica::Update>& updates) {
  std::uint32_t bytes = 24;  // header + count
  for (const replica::Update& u : updates) bytes += u.wire_bytes();
  return bytes;
}

/// Per-writer counts on the wire: writer id (4) + count (8) per entry.
std::uint32_t counts_wire_bytes(const vv::VersionVector& counts) {
  return static_cast<std::uint32_t>(12 * counts.writer_count());
}

/// The agent's metric ids, interned once per process.
struct AgentMetrics {
  obs::MetricId replicate_pushed = obs::MetricId::intern("replicate.pushed");
  obs::MetricId replicate_applied =
      obs::MetricId::intern("replicate.applied");
  obs::MetricId ae_rounds = obs::MetricId::intern("ae.rounds");
  obs::MetricId ae_digests_received =
      obs::MetricId::intern("ae.digests_received");
  obs::MetricId ae_repair_bytes = obs::MetricId::intern("ae.repair.bytes");
  obs::MetricId ae_repair_updates_sent =
      obs::MetricId::intern("ae.repair.updates_sent");
  obs::MetricId ae_repair_updates_applied =
      obs::MetricId::intern("ae.repair.updates_applied");
  obs::MetricId ae_heal_rounds = obs::MetricId::intern("ae.heal_rounds");
  obs::MetricId migrate_updates_applied =
      obs::MetricId::intern("migrate.updates_applied");
  obs::MetricId replicate_resends =
      obs::MetricId::intern("replicate.resends");
  obs::MetricId replicate_gaveups =
      obs::MetricId::intern("replicate.resend_gaveups");
  obs::MetricId gaveup_digests =
      obs::MetricId::intern("ae.gaveup_digests");
  obs::MetricId wack_satisfied = obs::MetricId::intern("wack.satisfied");
  obs::MetricId wack_failed = obs::MetricId::intern("wack.failed");
};

const AgentMetrics& agent_metrics() {
  static const AgentMetrics m;
  return m;
}

}  // namespace

ReplicaSyncAgent::ReplicaSyncAgent(replica::ReplicaStore& store,
                                   net::Transport& transport,
                                   std::uint32_t group_size,
                                   ReplicaSyncOptions options)
    : store_(store),
      transport_(transport),
      group_size_(group_size),
      options_(options) {
  store_.set_mutation_listener(this);
}

ReplicaSyncAgent::~ReplicaSyncAgent() {
  store_.set_mutation_listener(nullptr);
  stop_anti_entropy();
  for (auto& [key, pending] : pending_acks_) {
    transport_.cancel_call(pending.timer);
    // A write concern that never completed must not leave its client
    // handle pending forever: the group is tearing down (crash, epoch
    // rebuild, shutdown), so the honest answer is "ack target not met".
    finish_concern(pending, /*satisfied=*/false);
  }
}

const replica::Update& ReplicaSyncAgent::put(std::string content,
                                             double meta_delta,
                                             PutConcern concern,
                                             const obs::TraceContext& tc) {
  const replica::Update& u = store_.apply_local(
      transport_.local_time(self()), std::move(content), meta_delta);
  ++stats_.puts;

  // One shared allocation for the whole fan-out; each send refcounts it.
  // Receivers ack exactly the pushes that ask: every push while resends
  // are on, and a write-concern put's pushes even when they are off.
  const bool want_ack =
      options_.resend_timeout > 0 || concern.peer_acks_needed > 0;
  const net::Payload payload = std::vector<replica::Update>{u};
  const auto bytes = static_cast<std::uint32_t>(16 + u.wire_bytes());
  std::uint64_t pushed = 0;
  for (std::uint32_t rank = 0; rank < group_size_; ++rank) {
    if (rank == self()) continue;
    net::Message msg;
    msg.from = self();
    msg.to = rank;
    msg.file = store_.file();
    msg.type = kReplicateType;
    msg.payload = payload;
    msg.wire_bytes = bytes;
    msg.want_ack = want_ack;
    stamp_wire_span(msg, tc, "msg.shard.replicate");
    transport_.send(std::move(msg));
    ++stats_.pushed;
    ++pushed;
  }
  if (pushed > 0) meter_.add(agent_metrics().replicate_pushed, pushed);

  if (concern.on_result && concern.peer_acks_needed == 0) {
    // w = 1: the local apply is the whole target, so no ack is awaited
    // and the write-concern counters stay untouched.
    concern.on_result(true, 1);
    concern.on_result = nullptr;
  }
  if (pushed > 0 && (options_.resend_timeout > 0 || concern.on_result)) {
    // track_pending fails the concern itself when tracking is impossible
    // (group too large for the rank bitmask).
    if (track_pending(u, concern.peer_acks_needed,
                      std::move(concern.on_result)) &&
        concern.peer_acks_needed > 0) {
      ++stats_.wack_tracked;
    }
  } else if (concern.on_result) {
    // Nothing pushed (single-member group) but peer acks were required:
    // the target is unreachable by construction.
    ++stats_.wack_failed;
    meter_.add(agent_metrics().wack_failed);
    concern.on_result(false, 1);
  }
  return u;
}

SimDuration ReplicaSyncAgent::effective_resend_timeout() const {
  // Write-concern puts need the ack/re-send machinery even when the
  // deployment left it off; half a second spans several cross-continent
  // round trips under the latency model without dragging out give-ups.
  return options_.resend_timeout > 0 ? options_.resend_timeout : msec(500);
}

void ReplicaSyncAgent::finish_concern(PendingReplication& pending,
                                      bool satisfied) {
  if (!pending.on_result) return;
  if (satisfied) {
    ++stats_.wack_satisfied;
    meter_.add(agent_metrics().wack_satisfied);
  } else {
    ++stats_.wack_failed;
    meter_.add(agent_metrics().wack_failed);
  }
  WriteConcernCallback cb = std::move(pending.on_result);
  pending.on_result = nullptr;
  cb(satisfied, 1 + pending.acks_got);
}

bool ReplicaSyncAgent::track_pending(const replica::Update& u,
                                     std::uint32_t acks_needed,
                                     WriteConcernCallback on_result) {
  if (group_size_ > 64) {  // unacked is a rank bitmask
    if (on_result) {
      ++stats_.wack_failed;
      meter_.add(agent_metrics().wack_failed);
      on_result(false, 1);
    }
    return false;
  }
  PendingReplication pending;
  pending.update = u;
  for (std::uint32_t rank = 0; rank < group_size_; ++rank) {
    if (rank != self()) pending.unacked |= 1ull << rank;
  }
  pending.resends_left = options_.max_resends;
  pending.acks_needed = acks_needed;
  pending.on_result = std::move(on_result);
  auto [it, inserted] = pending_acks_.emplace(u.key, std::move(pending));
  if (!inserted) return false;  // defensive; keys are unique per put
  it->second.timer = transport_.call_after(
      effective_resend_timeout(),
      [this, key = u.key] { on_resend_timeout(key); });
  return true;
}

void ReplicaSyncAgent::on_resend_timeout(replica::UpdateKey key) {
  auto it = pending_acks_.find(key);
  if (it == pending_acks_.end()) return;
  PendingReplication& pending = it->second;
  if (pending.resends_left == 0) {
    // Budget exhausted: stop tracking — but never silently.  With
    // anti-entropy off (the default) an abandoned update would diverge
    // the group forever, so the give-up immediately digests the silent
    // ranks: if a peer merely lost the acks this is one cheap no-delta
    // exchange, and if it lost the update the repair re-delivers it.  A
    // pending write concern fails here (its targeted heal is already on
    // the wire, so failure means "unacked", not "lost").
    ++stats_.resend_gaveups;
    meter_.add(agent_metrics().replicate_gaveups);
    for (std::uint32_t rank = 0; rank < group_size_; ++rank) {
      if ((pending.unacked & (1ull << rank)) == 0) continue;
      anti_entropy_with(rank);
      ++stats_.gaveup_ae_digests;
      meter_.add(agent_metrics().gaveup_digests);
    }
    finish_concern(pending, /*satisfied=*/false);
    pending_acks_.erase(it);
    return;
  }
  --pending.resends_left;
  const net::Payload payload = std::vector<replica::Update>{pending.update};
  const auto bytes =
      static_cast<std::uint32_t>(16 + pending.update.wire_bytes());
  std::uint64_t resent = 0;
  for (std::uint32_t rank = 0; rank < group_size_; ++rank) {
    if ((pending.unacked & (1ull << rank)) == 0) continue;
    net::Message msg;
    msg.from = self();
    msg.to = rank;
    msg.file = store_.file();
    msg.type = kReplicateType;
    msg.payload = payload;
    msg.wire_bytes = bytes;
    msg.want_ack = true;  // a tracked push always wants its ack back
    transport_.send(std::move(msg));
    ++resent;
  }
  if (resent > 0) meter_.add(agent_metrics().replicate_resends, resent);
  pending.timer = transport_.call_after(
      effective_resend_timeout(), [this, key] { on_resend_timeout(key); });
}

void ReplicaSyncAgent::start_anti_entropy(SimDuration period) {
  stop_anti_entropy();
  if (period <= 0 || group_size_ < 2) return;
  ae_ = std::make_unique<AntiEntropy>();
  ae_->period = period;
  ae_->origin = transport_.now();
  ae_->matched.assign(group_size_, kUnmatched);
  ae_->timer =
      transport_.call_every(period, [this] { anti_entropy_round(); });
}

void ReplicaSyncAgent::stop_anti_entropy() {
  if (ae_ == nullptr) return;
  if (ae_->timer != 0) transport_.cancel_call(ae_->timer);
  ae_.reset();
}

void ReplicaSyncAgent::anti_entropy_round() {
  // Deterministic rotation: consecutive rounds visit every unmatched rank
  // before repeating, so a pairwise exchange happens within k-1 periods.
  const std::uint64_t count = store_.mutation_count();
  for (std::uint32_t tried = 1; tried < group_size_; ++tried) {
    const std::uint32_t offset = 1 + (ae_->rotation++ % (group_size_ - 1));
    const auto peer = static_cast<NodeId>((self() + offset) % group_size_);
    if (ae_->matched[peer] == count) continue;
    ++stats_.ae_rounds;
    ++rounds_since_heal_;
    meter_.add(agent_metrics().ae_rounds);
    send_digest(peer);
    return;
  }
}

void ReplicaSyncAgent::set_dirty_list(std::vector<FileId>& dirty) {
  dirty_ = &dirty;
  listed_ = true;
  dirty.push_back(store_.file());
}

void ReplicaSyncAgent::on_store_mutation() {
  if (dirty_ != nullptr && !listed_) {
    listed_ = true;
    dirty_->push_back(store_.file());
  }
  if (ae_ == nullptr || ae_->timer != 0) return;
  // Rejoin the grid anti-entropy started on: replicas built together keep
  // their rounds in the same instant, so batching still merges their
  // digests.
  const SimDuration into = (transport_.now() - ae_->origin) % ae_->period;
  ae_->timer = transport_.call_after(ae_->period - into, [this] {
    ae_->timer =
        transport_.call_every(ae_->period, [this] { anti_entropy_round(); });
    anti_entropy_round();
  });
}

void ReplicaSyncAgent::note_identical(NodeId peer) {
  if (ae_ == nullptr) return;
  const std::uint64_t count = store_.mutation_count();
  ae_->matched[peer] = count;
  for (NodeId rank = 0; rank < group_size_; ++rank) {
    if (rank != self() && ae_->matched[rank] != count) return;
  }
  if (ae_->timer != 0) {
    transport_.cancel_call(ae_->timer);
    ae_->timer = 0;
  }
}

void ReplicaSyncAgent::note_report(NodeId peer_rank,
                                   const vv::VersionVector& counts) {
  if (on_freshness_) on_freshness_(peer_rank, counts.total());
}

void ReplicaSyncAgent::anti_entropy_with(NodeId peer_rank) {
  if (peer_rank == self() || peer_rank >= group_size_) return;
  send_digest(peer_rank);
}

void ReplicaSyncAgent::send_digest(NodeId peer) {
  net::Message msg;
  msg.from = self();
  msg.to = peer;
  msg.file = store_.file();
  msg.type = kDigestType;
  vv::VersionVector counts = store_.evv().counts();
  msg.wire_bytes = 16 + counts_wire_bytes(counts);
  msg.payload = std::move(counts);
  // Adopt the repair trace the router parked for this file (a traced read
  // that observed staleness): the round is tagged, not altered, and the
  // parked context stays until a traced repair actually heals something.
  if (obs_ != nullptr) {
    stamp_wire_span(msg, obs_->peek_repair_trace(store_.file()),
                    "msg.shard.digest");
  }
  transport_.send(std::move(msg));
}

std::size_t ReplicaSyncAgent::stream_state(
    const std::vector<replica::Update>& updates) {
  if (group_size_ < 2) return 0;
  const net::Payload payload = updates;  // one allocation, shared below
  const std::uint32_t bytes = batch_wire_bytes(updates);
  std::size_t sent = 0;
  for (std::uint32_t rank = 0; rank < group_size_; ++rank) {
    if (rank == self()) continue;
    net::Message msg;
    msg.from = self();
    msg.to = rank;
    msg.file = store_.file();
    msg.type = kMigrateType;
    msg.payload = payload;
    msg.wire_bytes = bytes;
    transport_.send(std::move(msg));
    ++sent;
  }
  return sent;
}

std::size_t ReplicaSyncAgent::apply_batch(
    const std::vector<replica::Update>& updates,
    std::uint64_t& applied_stat) {
  // One import puts the store's view in canonical order once for the
  // whole batch.  Flag merges cannot happen here: nothing on the sharded
  // path invalidates an update.
  const replica::ReplicaStore::ImportReport r = store_.import_log(updates);
  const std::size_t applied =
      updates.size() - r.duplicates - r.invalidation_merges - r.parked;
  applied_stat += applied;
  return applied;
}

void ReplicaSyncAgent::send_repair(NodeId to_rank,
                                   std::vector<replica::Update> updates,
                                   vv::VersionVector counts, bool respond,
                                   const obs::TraceContext& tc) {
  RepairPayload body;
  body.sender_counts = std::move(counts);
  body.respond = respond;
  body.updates = std::move(updates);

  net::Message msg;
  msg.from = self();
  msg.to = to_rank;
  msg.file = store_.file();
  msg.type = kRepairType;
  msg.wire_bytes =
      batch_wire_bytes(body.updates) + counts_wire_bytes(body.sender_counts);
  stats_.repair_updates_sent += body.updates.size();
  if (!body.updates.empty()) {
    meter_.add(agent_metrics().ae_repair_updates_sent, body.updates.size());
  }
  meter_.add(agent_metrics().ae_repair_bytes, msg.wire_bytes);
  stamp_wire_span(msg, tc, "msg.shard.repair");
  msg.payload = std::move(body);
  transport_.send(std::move(msg));
  ++stats_.repairs_sent;
}

void ReplicaSyncAgent::on_message(const net::Message& msg) {
  // Structured log context for everything this delivery triggers, and the
  // inbound trace: close the sender's wire span at delivery time, then
  // parent any work this handler records from it.
  std::optional<LogTagScope> tags;
  if (obs_ != nullptr) {
    tags.emplace(LogTags{transport_.now(), endpoint_, msg.trace});
  }
  const obs::TraceContext inbound{msg.trace, msg.span};
  obs::Tracer* tr = tracer();
  if (tr != nullptr && inbound.active()) {
    tr->end_span(msg.span, transport_.now());
  }

  if (msg.type == kReplicateType) {
    const auto& batch = msg.payload.as<std::vector<replica::Update>>();
    const std::size_t applied = apply_batch(batch, stats_.applied);
    if (applied > 0) meter_.add(agent_metrics().replicate_applied, applied);
    if (tr != nullptr && inbound.active() && applied > 0) {
      tr->instant(inbound, "replicate.apply", endpoint_, msg.file,
                  transport_.now());
    }
    // Ack every replicate that asks (even redundant ones — the sender
    // wants delivery confirmation, and re-sends of an update we already
    // hold must still clear its pending slot over there).
    if (msg.want_ack && !batch.empty()) {
      net::Message ack;
      ack.from = self();
      ack.to = msg.from;
      ack.file = store_.file();
      ack.type = kAckType;
      ack.payload = batch.front().key;  // a push carries one update
      ack.wire_bytes = 24;
      transport_.send(std::move(ack));
    }
    return;
  }
  if (msg.type == kAckType) {
    ++stats_.acks_received;
    auto it = pending_acks_.find(msg.payload.as<replica::UpdateKey>());
    if (it == pending_acks_.end()) return;  // already resolved/abandoned
    PendingReplication& pending = it->second;
    const std::uint64_t bit = 1ull << msg.from;
    if ((pending.unacked & bit) != 0) {
      // First ack from this rank (duplicates from re-sends don't
      // double-count toward a write concern).
      pending.unacked &= ~bit;
      ++pending.acks_got;
      if (pending.on_result && pending.acks_got >= pending.acks_needed) {
        finish_concern(pending, /*satisfied=*/true);
      }
    }
    if (pending.unacked == 0) {
      transport_.cancel_call(pending.timer);
      pending_acks_.erase(it);
    }
    return;
  }
  if (msg.type == kDigestType) {
    ++stats_.digests_received;
    meter_.add(agent_metrics().ae_digests_received);
    const auto& peer = msg.payload.as<vv::VersionVector>();
    note_report(msg.from, peer);
    vv::VersionVector mine = store_.evv().counts();
    // Equal counts leave nothing to send: the pair is identical.
    const bool identical = mine == peer;
    // Always reply, even with nothing to offer: the initiator needs our
    // counts to push back the other half of the delta.  A traced digest's
    // repair joins the same trace.
    send_repair(msg.from, store_.updates_ahead_of(peer), std::move(mine),
                /*respond=*/true, inbound);
    if (identical) note_identical(msg.from);
    return;
  }
  if (msg.type == kRepairType) {
    const auto& body = msg.payload.as<RepairPayload>();
    note_report(msg.from, body.sender_counts);
    const std::size_t applied =
        apply_batch(body.updates, stats_.repair_updates_applied);
    if (applied > 0) {
      meter_.add(agent_metrics().ae_repair_updates_applied, applied);
      meter_.observe(agent_metrics().ae_heal_rounds, rounds_since_heal_);
      rounds_since_heal_ = 0;
      if (tr != nullptr && inbound.active()) {
        tr->instant(inbound, "ae.repair.apply", endpoint_, msg.file,
                    transport_.now());
      }
      // This repair healed real staleness under the parked trace: the
      // escalation→heal loop the router asked to watch is closed.
      if (obs_ != nullptr && inbound.active() &&
          obs_->peek_repair_trace(msg.file).trace == inbound.trace) {
        obs_->clear_repair_trace(msg.file);
      }
    }
    if (body.respond) {
      // The reply to a digest this agent sent: push back what the peer
      // lacks.  With nothing to push back and nothing received the pair
      // is identical: the replier held nothing past the digest, this
      // replica holds nothing past the reply, and the store only appends.
      std::vector<replica::Update> back =
          store_.updates_ahead_of(body.sender_counts);
      if (!back.empty()) {
        send_repair(msg.from, std::move(back), store_.evv().counts(),
                    /*respond=*/false, inbound);
      } else if (body.updates.empty()) {
        note_identical(msg.from);
      }
    }
    return;
  }
  if (msg.type == kMigrateType) {
    const std::size_t applied =
        apply_batch(msg.payload.as<std::vector<replica::Update>>(),
                    stats_.migrate_updates_applied);
    if (applied > 0) {
      meter_.add(agent_metrics().migrate_updates_applied, applied);
    }
  }
}

void ReplicaSyncAgent::set_observability(obs::Observability* observability,
                                         NodeId endpoint) {
  obs_ = observability;
  endpoint_ = endpoint;
  meter_ = obs_ == nullptr ? obs::Meter()
                           : obs_->endpoint_meter(endpoint);
}

void ReplicaSyncAgent::stamp_wire_span(net::Message& msg,
                                       const obs::TraceContext& tc,
                                       std::string_view span_name) {
  obs::Tracer* tr = tracer();
  if (tr == nullptr || !tc.active()) return;
  const obs::TraceContext wire =
      tr->begin_span(tc, span_name, endpoint_, msg.file, transport_.now());
  msg.trace = wire.trace;
  msg.span = wire.span;
}

}  // namespace idea::shard
