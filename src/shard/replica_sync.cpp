#include "shard/replica_sync.hpp"

#include <algorithm>
#include <limits>
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

/// Body of a "shard.ack": the key of every update the acked push held
/// (none for a migration stream) and, while the acker runs anti-entropy,
/// its per-writer counts after the apply (empty, and free, otherwise).
struct CountedAck {
  std::vector<replica::UpdateKey> keys;
  vv::VersionVector counts;
};

/// A firing of a tracked update's timer skips a rank that push_unacked
/// pushed less than timeout / kResendSpacingDivisor ago.  At most one
/// push per full timeout would put every update on one timer phase, so
/// the first push after a loss heals could come up to a whole timeout
/// late.
constexpr SimDuration kResendSpacingDivisor = 2;

/// The ack `ack` shows its sender lacking more of `mine` than the pushes
/// in flight will bring it: besides the updates its counts hold, it will
/// hold the `owed` tracked updates it has not acked yet and the ones this
/// ack names past its counts (parked behind a gap), all of them writer
/// `self`'s (a tracked update is one of the pusher's own puts).  The rest
/// only a round can bring.
bool lacks_beyond_owed(const CountedAck& ack, const vv::VersionVector& mine,
                       NodeId self, std::uint32_t owed) {
  std::uint64_t coming = owed;
  for (const replica::UpdateKey& key : ack.keys) {
    if (key.writer == self && key.seq > ack.counts.get(self)) ++coming;
  }
  for (const auto& [writer, count] : mine.entries()) {
    const std::uint64_t held = ack.counts.get(writer);
    if (held + (writer == self ? coming : 0) < count) return true;
  }
  return false;
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
    // handle pending forever: this replica is going away (its member
    // crashed or left, the file migrated or closed, or the deployment is
    // shutting down), so the honest answer is "ack target not met".
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

  // One shared allocation for the whole fan-out and its re-sends; each
  // send refcounts it.  Receivers ack exactly the pushes that ask: every
  // push while resends are on, and a write-concern put's pushes even when
  // they are off.  A dark rank is sent nothing, yet owes the ack like any
  // silent rank: its restart brings it the push (peer_restarted).
  const bool want_ack =
      options_.resend_timeout > 0 || concern.peer_acks_needed > 0;
  const auto bytes = static_cast<std::uint32_t>(16 + u.wire_bytes());
  const net::Payload payload = std::vector<replica::Update>{u};
  std::uint64_t pushed = 0;
  for (std::uint32_t rank = 0; rank < group_size_; ++rank) {
    if (rank == self() || is_dark(rank)) continue;
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
  if (group_size_ > 1 && (options_.resend_timeout > 0 || concern.on_result)) {
    // track_pending fails the concern itself when tracking is impossible
    // (group too large for the rank bitmask).
    if (track_pending(u.key, payload, concern.peer_acks_needed,
                      std::move(concern.on_result)) &&
        concern.peer_acks_needed > 0) {
      ++stats_.wack_tracked;
    }
  } else if (concern.on_result) {
    // A single-member group, but peer acks were required: the target is
    // unreachable by construction.
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

bool ReplicaSyncAgent::track_pending(replica::UpdateKey key,
                                     net::Payload push,
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
  pending.push = std::move(push);
  for (std::uint32_t rank = 0; rank < group_size_; ++rank) {
    if (rank != self()) pending.unacked |= 1ull << rank;
  }
  pending.resends_left = options_.max_resends;
  pending.acks_needed = acks_needed;
  pending.on_result = std::move(on_result);
  auto [it, inserted] = pending_acks_.emplace(key, std::move(pending));
  if (!inserted) return false;  // defensive; keys are unique per put
  it->second.timer = transport_.call_after(
      effective_resend_timeout(), [this, key] { on_resend_timeout(key); });
  if (ae_ != nullptr) {
    for (std::uint32_t rank = 0; rank < group_size_; ++rank) {
      if (rank != self()) ++ae_->peers[rank].owed;
    }
    // The put's apply armed the rounds before its peers owed the ack.
    update_rounds();
  }
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
    // the wire, so failure means "unacked", not "lost").  A dark rank is
    // sent no digest: its restart un-matches it at the coordinator.
    ++stats_.resend_gaveups;
    meter_.add(agent_metrics().replicate_gaveups);
    for (std::uint32_t rank = 0; rank < group_size_; ++rank) {
      if ((pending.unacked & (1ull << rank)) == 0) continue;
      if (ae_ != nullptr) --ae_->peers[rank].owed;
      if (is_dark(rank)) continue;
      anti_entropy_with(rank);
      ++stats_.gaveup_ae_digests;
      meter_.add(agent_metrics().gaveup_digests);
    }
    finish_concern(pending, /*satisfied=*/false);
    pending_acks_.erase(it);
    // The silent ranks owe this update no ack now: one that owes no other
    // is back in the rounds.
    update_rounds();
    return;
  }
  --pending.resends_left;
  const SimDuration timeout = effective_resend_timeout();
  const SimTime spaced = transport_.now() - timeout / kResendSpacingDivisor;
  for (std::uint32_t rank = 0; rank < group_size_; ++rank) {
    if ((pending.unacked & (1ull << rank)) == 0 || is_dark(rank)) continue;
    if (resent_at_ != nullptr && resent_at_[rank] > spaced) continue;
    push_unacked(rank);
  }
  pending.timer = transport_.call_after(
      timeout, [this, key] { on_resend_timeout(key); });
}

void ReplicaSyncAgent::push_unacked(NodeId rank) {
  const std::uint64_t bit = 1ull << rank;
  std::vector<replica::Update> push;
  std::uint32_t bytes = 16;
  for (const auto& [key, pending] : pending_acks_) {
    if ((pending.unacked & bit) == 0) continue;
    const replica::Update& u =
        pending.push.as<std::vector<replica::Update>>().front();
    push.push_back(u);
    bytes += u.wire_bytes();
  }
  if (resent_at_ == nullptr) {
    resent_at_ = std::make_unique<SimTime[]>(group_size_);
    std::fill_n(resent_at_.get(), group_size_,
                std::numeric_limits<SimTime>::min());
  }
  resent_at_[rank] = transport_.now();

  net::Message msg;
  msg.from = self();
  msg.to = rank;
  msg.file = store_.file();
  msg.type = kReplicateType;
  msg.payload = std::move(push);
  msg.wire_bytes = bytes;
  msg.want_ack = true;  // a tracked push always wants its ack back
  transport_.send(std::move(msg));
  meter_.add(agent_metrics().replicate_resends);
}

void ReplicaSyncAgent::start_anti_entropy(SimDuration period) {
  stop_anti_entropy();
  if (period <= 0 || group_size_ < 2) return;
  ae_ = std::make_unique<AntiEntropy>();
  ae_->period = period;
  ae_->origin = transport_.now();
  // Every store is empty at placement, so one that never mutated already
  // matches every peer.
  const std::uint64_t matched = store_.mutation_count() == 0 ? 0 : kUnmatched;
  ae_->peers.assign(group_size_, {.matched = matched});
  for (const auto& [key, pending] : pending_acks_) {
    for (std::uint32_t rank = 0; rank < group_size_; ++rank) {
      if ((pending.unacked & (1ull << rank)) != 0) ++ae_->peers[rank].owed;
    }
  }
  update_rounds();
}

void ReplicaSyncAgent::stop_anti_entropy() {
  if (ae_ == nullptr) return;
  if (ae_->timer != 0) transport_.cancel_call(ae_->timer);
  ae_.reset();
}

void ReplicaSyncAgent::peer_restarted(NodeId rank) {
  if (ae_ != nullptr) {
    // The restarted rank shares the restart's grid: batching merges the
    // group's digests again.
    if (ae_->timer != 0) transport_.cancel_call(ae_->timer);
    ae_->timer = 0;
    ae_->origin = transport_.now();
    ae_->peers[rank].matched = kUnmatched;
    update_rounds();
  }
  bool owed = false;
  for (auto& [key, pending] : pending_acks_) {
    if ((pending.unacked & (1ull << rank)) == 0) continue;
    owed = true;
    transport_.cancel_call(pending.timer);
    pending.timer = transport_.call_after(
        effective_resend_timeout(), [this, k = key] { on_resend_timeout(k); });
  }
  if (owed) push_unacked(rank);
}

void ReplicaSyncAgent::forget_matches() {
  if (ae_ == nullptr) return;
  for (AntiEntropy::Peer& p : ae_->peers) p.matched = kUnmatched;
  update_rounds();
}

void ReplicaSyncAgent::set_star(NodeId acting, std::uint64_t dark) {
  dark_ = dark;
  // A newly built agent's first star is no change: its store is empty,
  // as every store at placement, or restart_endpoint forgets for it.
  const bool becomes_acting =
      acting == self() && acting_ != kNoNode && acting != acting_;
  acting_ = acting;
  if (becomes_acting) {
    forget_matches();
  } else {
    update_rounds();  // a rank gone dark may settle the star
  }
}

void ReplicaSyncAgent::anti_entropy_round() {
  const std::uint64_t count = store_.mutation_count();
  bool sent = false;
  for (NodeId peer = 0; peer < group_size_; ++peer) {
    if (settled(peer, count)) continue;
    send_digest(peer);
    sent = true;
  }
  if (!sent) return;
  ++stats_.ae_rounds;
  ++ae_->rounds_since_heal;
  meter_.add(agent_metrics().ae_rounds);
}

bool ReplicaSyncAgent::star_settled() const {
  const std::uint64_t count = store_.mutation_count();
  for (NodeId peer = 0; peer < group_size_; ++peer) {
    if (!settled(peer, count)) return false;
  }
  return true;
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
  update_rounds();
}

void ReplicaSyncAgent::update_rounds() {
  if (ae_ == nullptr) return;
  if (star_settled()) {
    if (ae_->timer != 0) transport_.cancel_call(ae_->timer);
    ae_->timer = 0;
    return;
  }
  if (ae_->timer != 0) return;
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
  ae_->peers[peer].matched = store_.mutation_count();
  ae_->peers[peer].differs = false;
  update_rounds();
}

void ReplicaSyncAgent::note_report(NodeId peer_rank,
                                   const vv::VersionVector& counts) {
  if (on_freshness_) on_freshness_(peer_rank, counts.total());
}

vv::VersionVector ReplicaSyncAgent::counts_to_carry() const {
  if (ae_ == nullptr) return {};
  return store_.evv().counts();
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
    if (rank == self() || is_dark(rank)) continue;
    net::Message msg;
    msg.from = self();
    msg.to = rank;
    msg.file = store_.file();
    msg.type = kMigrateType;
    msg.payload = payload;
    msg.wire_bytes = bytes;
    // The ack's counts match the pair, so a stream that lands leaves no
    // round to run.
    msg.want_ack = ae_ != nullptr;
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
  // The report's count includes the parked successors the batch released.
  const std::size_t applied = store_.import_log(updates).applied;
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
      std::vector<replica::UpdateKey> keys;
      keys.reserve(batch.size());
      for (const replica::Update& u : batch) keys.push_back(u.key);
      send_ack(msg.from, std::move(keys));
    }
    return;
  }
  if (msg.type == kAckType) {
    ++stats_.acks_received;
    const auto& ack = msg.payload.as<CountedAck>();
    // Counts are carried iff they name a writer (see counts_to_carry).
    if (ack.counts.writer_count() > 0) note_report(msg.from, ack.counts);
    // A peer running anti-entropy acks with its counts, so empty ones
    // mean it holds nothing (say, a restart reloaded nothing and every
    // push parks): all zero, not unknown.
    vv::VersionVector mine;
    if (ae_ != nullptr) {
      mine = store_.evv().counts();
      if (ack.counts == mine) note_identical(msg.from);
    }
    const std::uint64_t bit = 1ull << msg.from;
    for (const replica::UpdateKey& key : ack.keys) {
      auto it = pending_acks_.find(key);
      if (it == pending_acks_.end()) continue;  // resolved or abandoned
      PendingReplication& pending = it->second;
      if ((pending.unacked & bit) != 0) {
        // First ack from this rank (duplicates from re-sends don't
        // double-count toward a write concern).
        pending.unacked &= ~bit;
        if (ae_ != nullptr) --ae_->peers[msg.from].owed;
        ++pending.acks_got;
        if (pending.on_result && pending.acks_got >= pending.acks_needed) {
          finish_concern(pending, /*satisfied=*/true);
        }
      }
      if (pending.unacked == 0) {
        transport_.cancel_call(pending.timer);
        pending_acks_.erase(it);
      }
    }
    // An ack that paid the rank's last owed one hands it back to the
    // rounds, and so does one whose counts differ by more than the pushes
    // in flight will close: the rank lacks more than they bring, or holds
    // an update this store lacks (an old coordinator's push, or what this
    // rank lost in a restart).  Equal counts matched it above.
    if (ae_ != nullptr) {
      AntiEntropy::Peer& peer = ae_->peers[msg.from];
      peer.differs = lacks_beyond_owed(ack, mine, self(), peer.owed) ||
                     !mine.dominates(ack.counts);
    }
    update_rounds();
    return;
  }
  if (msg.type == kDigestType) {
    ++stats_.digests_received;
    meter_.add(agent_metrics().ae_digests_received);
    const auto& peer = msg.payload.as<vv::VersionVector>();
    note_report(msg.from, peer);
    // Always reply, even with nothing to offer: the initiator needs our
    // counts to push back the other half of the delta or to match the
    // pair.  A traced digest's repair joins the same trace.
    send_repair(msg.from, store_.updates_ahead_of(peer),
                store_.evv().counts(), /*respond=*/true, inbound);
    return;
  }
  if (msg.type == kRepairType) {
    const auto& body = msg.payload.as<RepairPayload>();
    note_report(msg.from, body.sender_counts);
    const std::size_t applied =
        apply_batch(body.updates, stats_.repair_updates_applied);
    if (applied > 0) {
      const std::uint64_t rounds =
          ae_ == nullptr ? 0 : std::exchange(ae_->rounds_since_heal, 0);
      meter_.add(agent_metrics().ae_repair_updates_applied, applied);
      meter_.observe(agent_metrics().ae_heal_rounds, rounds);
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
    if (!body.respond) return;  // a push-back: applied above
    // The reply to a digest this agent sent: push back what the peer
    // lacks.  With nothing to push back, counts equal to the replier's
    // after the apply mean the pair holds the same updates (the store
    // only appends).  A pair that needed a push-back stays unmatched: the
    // push-back may be lost, and the next round checks.
    std::vector<replica::Update> back =
        store_.updates_ahead_of(body.sender_counts);
    if (!back.empty()) {
      send_repair(msg.from, std::move(back), store_.evv().counts(),
                  /*respond=*/false, inbound);
    } else if (body.sender_counts == store_.evv().counts()) {
      note_identical(msg.from);
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
    if (msg.want_ack) send_ack(msg.from, {});
  }
}

void ReplicaSyncAgent::send_ack(NodeId to_rank,
                                std::vector<replica::UpdateKey> keys) {
  CountedAck body{std::move(keys), counts_to_carry()};
  net::Message ack;
  ack.from = self();
  ack.to = to_rank;
  ack.file = store_.file();
  ack.type = kAckType;
  ack.wire_bytes = static_cast<std::uint32_t>(
      12 + 12 * body.keys.size() + counts_wire_bytes(body.counts));
  ack.payload = std::move(body);
  transport_.send(std::move(ack));
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
