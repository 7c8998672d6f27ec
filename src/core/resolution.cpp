#include "core/resolution.hpp"

#include <algorithm>
#include <cassert>

#include "util/log.hpp"

namespace idea::core {

namespace {

/// Wait for commit acknowledgements before closing the round.
constexpr SimDuration kCommitTimeout = sec(3);
/// Wait for call-for-attention acks before deciding; a member that never
/// answers (crashed) is treated as not-initiating, so the round proceeds.
constexpr SimDuration kAttnTimeout = sec(2);
/// Randomized retry window after a failed call-for-attention, and how
/// many retries a round gets before it gives up.
constexpr SimDuration kBackoffMin = msec(100);
constexpr SimDuration kBackoffMax = msec(800);
constexpr int kMaxBackoffs = 8;

struct AttnPayload {
  std::uint64_t round_id;
};

struct AttnAckPayload {
  std::uint64_t round_id;
  bool ok;
};

struct CollectPayload {
  std::uint64_t round_id;
  vv::VersionVector initiator_counts;
};

struct CollectReplyPayload {
  std::uint64_t round_id;
  vv::ExtendedVersionVector evv;
  std::vector<replica::Update> updates;  ///< Ahead of initiator_counts.
};

struct CommitPayload {
  std::uint64_t round_id;
  NodeId winner;
  std::vector<replica::Update> updates;  ///< Missing at this member.
  std::vector<std::pair<NodeId, std::uint64_t>> invalidate;
};

struct DonePayload {
  std::uint64_t round_id;
};

std::uint32_t updates_wire_bytes(const std::vector<replica::Update>& v) {
  std::uint32_t bytes = 16;
  for (const auto& u : v) bytes += u.wire_bytes();
  return bytes;
}

}  // namespace

const net::MsgType ResolutionManager::kAttnType =
    net::MsgType::intern("resolve.attn");
const net::MsgType ResolutionManager::kAttnAckType =
    net::MsgType::intern("resolve.attn_ack");
const net::MsgType ResolutionManager::kCollectType =
    net::MsgType::intern("resolve.collect");
const net::MsgType ResolutionManager::kCollectReplyType =
    net::MsgType::intern("resolve.collect_reply");
const net::MsgType ResolutionManager::kCommitType =
    net::MsgType::intern("resolve.commit");
const net::MsgType ResolutionManager::kDoneType =
    net::MsgType::intern("resolve.done");

ResolutionManager::ResolutionManager(
    NodeId self, FileId file, net::Transport& transport,
    replica::ReplicaStore& store,
    std::function<std::vector<NodeId>()> top_layer, ResolutionConfig config,
    std::uint64_t seed)
    : self_(self), file_(file), transport_(transport), store_(store),
      top_layer_(std::move(top_layer)), config_(config), rng_(seed) {}

ResolutionManager::~ResolutionManager() {
  if (timer_ != 0) transport_.cancel_call(timer_);
  if (participant_timer_ != 0) transport_.cancel_call(participant_timer_);
}

bool ResolutionManager::busy() const {
  return state_ == State::kCollect || state_ == State::kCommitWait ||
         participating_round_ != 0;
}

bool ResolutionManager::start_active() {
  if (state_ != State::kIdle) return false;
  begin_round(/*active=*/true);
  return true;
}

bool ResolutionManager::start_background() {
  if (state_ != State::kIdle) return false;
  begin_round(/*active=*/false);
  return true;
}

void ResolutionManager::begin_round(bool active) {
  ++initiated_;
  round_id_ = (static_cast<std::uint64_t>(self_) << 40) | ++round_counter_;
  stats_ = RoundStats{};
  stats_.active = active;
  stats_.started_at = transport_.now();

  members_ = top_layer_();
  members_.erase(std::remove(members_.begin(), members_.end(), self_),
                 members_.end());
  std::sort(members_.begin(), members_.end());
  stats_.participants = members_.size() + 1;

  if (members_.empty()) {
    // Nothing to resolve against; succeed trivially.
    state_ = State::kIdle;
    stats_.succeeded = true;
    ++succeeded_;
    if (on_round_) on_round_(stats_);
    return;
  }

  if (active) {
    state_ = State::kAttnWait;
    send_attn();
  } else {
    begin_collect();
  }
}

void ResolutionManager::send_attn() {
  acks_pending_ = members_.size();
  ack_failed_ = false;
  // Crashed members never ack; a silent member is not initiating, so after
  // the timeout the round proceeds with whatever answers arrived.
  const std::uint64_t expected_round = round_id_;
  timer_ = transport_.call_after(
      kAttnTimeout, [this, expected_round] {
        timer_ = 0;
        if (state_ != State::kAttnWait || round_id_ != expected_round) return;
        stats_.phase1_total = transport_.now() - stats_.started_at;
        if (ack_failed_) {
          enter_backoff();
        } else {
          begin_collect();
        }
      });
  // Phase 1 is dispatched in parallel; its cost is the local CPU work of
  // sending k messages (Table 2 measures exactly this).
  stats_.phase1_dispatch =
      static_cast<SimDuration>(members_.size()) * config_.cpu_per_send;
  for (NodeId peer : members_) {
    net::Message m;
    m.from = self_;
    m.to = peer;
    m.file = file_;
    m.type = kAttnType;
    m.payload = AttnPayload{round_id_};
    m.wire_bytes = 24;
    transport_.send(std::move(m));
  }
}

void ResolutionManager::handle_attn(const net::Message& msg) {
  const auto& p = msg.payload.as<AttnPayload>();
  // Positive iff we are not ourselves initiating and not mid-participation.
  const bool ok = state_ == State::kIdle && participating_round_ == 0;
  // An initiator waiting in backoff cancels in favour of the peer (§4.5.2:
  // "if one receives another's notice before it tries, it will simply
  // cancel its own resolution process").
  if (state_ == State::kBackoff) {
    if (timer_ != 0) {
      transport_.cancel_call(timer_);
      timer_ = 0;
    }
    state_ = State::kIdle;
    stats_.suppressed = true;
    finish_round(false);
  }
  net::Message reply;
  reply.from = self_;
  reply.to = msg.from;
  reply.file = file_;
  reply.type = kAttnAckType;
  reply.payload = AttnAckPayload{p.round_id, ok};
  reply.wire_bytes = 24;
  transport_.send(std::move(reply));
}

void ResolutionManager::handle_attn_ack(const net::Message& msg) {
  const auto& p = msg.payload.as<AttnAckPayload>();
  if (state_ != State::kAttnWait || p.round_id != round_id_) return;
  if (!p.ok) ack_failed_ = true;
  if (acks_pending_ > 0) --acks_pending_;
  if (acks_pending_ > 0) return;
  if (timer_ != 0) {
    transport_.cancel_call(timer_);
    timer_ = 0;
  }
  stats_.phase1_total = transport_.now() - stats_.started_at;
  if (ack_failed_) {
    enter_backoff();
  } else {
    begin_collect();
  }
}

void ResolutionManager::enter_backoff() {
  if (stats_.backoffs >= kMaxBackoffs) {
    state_ = State::kIdle;
    finish_round(false);
    return;
  }
  ++stats_.backoffs;
  state_ = State::kBackoff;
  const SimDuration wait = rng_.uniform_int(kBackoffMin, kBackoffMax);
  timer_ = transport_.call_after(wait, [this] {
    timer_ = 0;
    if (state_ != State::kBackoff) return;
    state_ = State::kAttnWait;
    send_attn();
  });
}

void ResolutionManager::begin_collect() {
  state_ = State::kCollect;
  phase2_started_ = transport_.now();
  gathered_.clear();
  gathered_.emplace_back(self_, store_.evv());
  next_member_ = 0;
  collect_outstanding_ = 0;

  if (config_.parallel_collect) {
    for (NodeId peer : members_) {
      net::Message m;
      m.from = self_;
      m.to = peer;
      m.file = file_;
      m.type = kCollectType;
      m.payload = CollectPayload{round_id_, store_.evv().counts()};
      m.wire_bytes = 64;
      transport_.send(std::move(m));
      ++collect_outstanding_;
    }
    timer_ = transport_.call_after(config_.collect_timeout, [this] {
      timer_ = 0;
      if (state_ == State::kCollect) commit_round();
    });
  } else {
    visit_next_member();
  }
}

void ResolutionManager::visit_next_member() {
  assert(!config_.parallel_collect);
  if (next_member_ >= members_.size()) {
    maybe_finish_collect();
    return;
  }
  const NodeId peer = members_[next_member_];
  net::Message m;
  m.from = self_;
  m.to = peer;
  m.file = file_;
  m.type = kCollectType;
  m.payload = CollectPayload{round_id_, store_.evv().counts()};
  m.wire_bytes = 64;
  transport_.send(std::move(m));
  // Skip the member if it does not answer in time.
  const std::uint64_t expected_round = round_id_;
  const std::size_t expected_index = next_member_;
  timer_ = transport_.call_after(
      config_.collect_timeout, [this, expected_round, expected_index] {
        timer_ = 0;
        if (state_ != State::kCollect || round_id_ != expected_round ||
            next_member_ != expected_index) {
          return;
        }
        IDEA_LOG(kWarn) << node_name(self_) << " collect timeout on member "
                        << node_name(members_[next_member_]);
        ++next_member_;
        visit_next_member();
      });
}

void ResolutionManager::handle_collect(const net::Message& msg) {
  const auto& p = msg.payload.as<CollectPayload>();
  const NodeId initiator = msg.from;
  participating_round_ = p.round_id;
  if (participant_timer_ != 0) transport_.cancel_call(participant_timer_);
  // Safety valve: release the write-block if the initiator disappears.
  participant_timer_ = transport_.call_after(
      config_.collect_timeout + kCommitTimeout, [this, p] {
        participant_timer_ = 0;
        if (participating_round_ == p.round_id) participating_round_ = 0;
      });
  // Model the version-comparison / log-lookup work before replying.
  transport_.call_after(config_.collect_processing, [this, p, initiator] {
    net::Message reply;
    reply.from = self_;
    reply.to = initiator;
    reply.file = file_;
    reply.type = kCollectReplyType;
    CollectReplyPayload body;
    body.round_id = p.round_id;
    body.evv = store_.evv();
    body.updates = store_.updates_ahead_of(p.initiator_counts);
    reply.wire_bytes =
        store_.evv().wire_bytes() + updates_wire_bytes(body.updates);
    reply.payload = std::move(body);
    transport_.send(std::move(reply));
  });
}

void ResolutionManager::handle_collect_reply(const net::Message& msg) {
  const auto& p = msg.payload.as<CollectReplyPayload>();
  if (state_ != State::kCollect || p.round_id != round_id_) return;

  // Merge the member's updates into our store so the initiator ends up
  // holding the union of all histories.
  for (const replica::Update& u : p.updates) {
    if (!store_.has(u.key)) store_.apply_remote(u);
  }
  collect_member_done(msg.from, p.evv);
}

void ResolutionManager::collect_member_done(
    NodeId member, std::optional<vv::ExtendedVersionVector> evv) {
  if (evv.has_value()) gathered_.emplace_back(member, std::move(*evv));
  if (config_.parallel_collect) {
    if (collect_outstanding_ > 0) --collect_outstanding_;
    if (collect_outstanding_ == 0) maybe_finish_collect();
  } else {
    if (timer_ != 0) {
      transport_.cancel_call(timer_);
      timer_ = 0;
    }
    ++next_member_;
    visit_next_member();
  }
}

void ResolutionManager::maybe_finish_collect() {
  if (state_ != State::kCollect) return;
  if (timer_ != 0) {
    transport_.cancel_call(timer_);
    timer_ = 0;
  }
  stats_.phase2_collect = transport_.now() - phase2_started_;
  commit_round();
}

void ResolutionManager::commit_round() {
  state_ = State::kCommitWait;
  if (stats_.phase2_collect == 0) {
    stats_.phase2_collect = transport_.now() - phase2_started_;
  }

  // Decide the winner and the invalidation set from the gathered snapshots.
  const NodeId winner = choose_winner(config_.policy, gathered_);
  stats_.winner = winner;
  vv::ExtendedVersionVector winner_evv;
  for (const auto& [node, evv] : gathered_) {
    if (node == winner) winner_evv = evv;
  }

  // Merged state: our own EVV now reflects the union (we applied every
  // member's updates during collect).
  const vv::ExtendedVersionVector& merged = store_.evv();

  std::vector<std::pair<NodeId, std::uint64_t>> invalidate;
  if (config_.policy.policy == ResolutionPolicy::kInvalidateBoth) {
    invalidate = updates_after(merged, group_last_consistent(gathered_));
  } else {
    invalidate = updates_not_in(merged, winner_evv);
  }
  stats_.invalidated = invalidate.size();
  // Re-announce every invalidation we already know about: a member that
  // missed an earlier commit (message loss) must still converge on the same
  // invalidation set.  Idempotent at the receivers.
  for (const replica::UpdateKey& key : store_.invalidated_keys()) {
    invalidate.emplace_back(key.writer, key.seq);
  }
  std::sort(invalidate.begin(), invalidate.end());
  invalidate.erase(std::unique(invalidate.begin(), invalidate.end()),
                   invalidate.end());

  // Parallel commit to every member with exactly the updates it lacks.
  done_pending_ = 0;
  for (const auto& [node, member_evv] : gathered_) {
    if (node == self_) continue;
    CommitPayload body;
    body.round_id = round_id_;
    body.winner = winner;
    body.invalidate = invalidate;
    for (const auto& [w, seq] : member_evv.missing_from(merged)) {
      const replica::Update* u = store_.find(replica::UpdateKey{w, seq});
      if (u != nullptr) body.updates.push_back(*u);
    }
    std::sort(body.updates.begin(), body.updates.end(),
              [](const replica::Update& a, const replica::Update& b) {
                return a.key < b.key;
              });
    stats_.updates_shipped += body.updates.size();
    net::Message m;
    m.from = self_;
    m.to = node;
    m.file = file_;
    m.type = kCommitType;
    m.wire_bytes = 48 + updates_wire_bytes(body.updates) +
                   static_cast<std::uint32_t>(16 * body.invalidate.size());
    m.payload = std::move(body);
    transport_.send(std::move(m));
    ++done_pending_;
  }
  stats_.commit_dispatch =
      static_cast<SimDuration>(done_pending_) * config_.cpu_per_send;

  // Apply the decision locally.
  apply_commit_locally({}, invalidate);

  if (done_pending_ == 0) {
    finish_round(true);
    return;
  }
  timer_ = transport_.call_after(kCommitTimeout, [this] {
    timer_ = 0;
    if (state_ == State::kCommitWait) finish_round(true);
  });
}

void ResolutionManager::handle_commit(const net::Message& msg) {
  const auto& p = msg.payload.as<CommitPayload>();
  apply_commit_locally(p.updates, p.invalidate);
  if (participating_round_ == p.round_id) {
    participating_round_ = 0;
    if (participant_timer_ != 0) {
      transport_.cancel_call(participant_timer_);
      participant_timer_ = 0;
    }
  }
  net::Message reply;
  reply.from = self_;
  reply.to = msg.from;
  reply.file = file_;
  reply.type = kDoneType;
  reply.payload = DonePayload{p.round_id};
  reply.wire_bytes = 16;
  transport_.send(std::move(reply));
}

void ResolutionManager::handle_done(const net::Message& msg) {
  const auto& p = msg.payload.as<DonePayload>();
  if (state_ != State::kCommitWait || p.round_id != round_id_) return;
  if (done_pending_ > 0) --done_pending_;
  if (done_pending_ == 0) {
    if (timer_ != 0) {
      transport_.cancel_call(timer_);
      timer_ = 0;
    }
    finish_round(true);
  }
}

void ResolutionManager::finish_round(bool succeeded) {
  stats_.succeeded = succeeded;
  stats_.total = transport_.now() - stats_.started_at;
  state_ = State::kIdle;
  if (succeeded) ++succeeded_;
  if (on_round_) on_round_(stats_);
}

void ResolutionManager::apply_commit_locally(
    const std::vector<replica::Update>& updates,
    const std::vector<std::pair<NodeId, std::uint64_t>>& invalidate) {
  for (const replica::Update& u : updates) {
    if (!store_.has(u.key)) store_.apply_remote(u);
  }
  for (const auto& [w, seq] : invalidate) {
    store_.invalidate(replica::UpdateKey{w, seq});
  }
  // The replica now matches the reference state; clear its error triple.
  store_.set_triple(vv::TactTriple{});
}

void ResolutionManager::on_message(const net::Message& msg) {
  if (msg.type == kAttnType) {
    handle_attn(msg);
  } else if (msg.type == kAttnAckType) {
    handle_attn_ack(msg);
  } else if (msg.type == kCollectType) {
    handle_collect(msg);
  } else if (msg.type == kCollectReplyType) {
    handle_collect_reply(msg);
  } else if (msg.type == kCommitType) {
    handle_commit(msg);
  } else if (msg.type == kDoneType) {
    handle_done(msg);
  }
}

}  // namespace idea::core
