#pragma once
/// \file replica_sync.hpp
/// \brief Pushes application writes to the rest of a file's replica group,
///        heals cold replicas with anti-entropy rounds while a replica may
///        differ from a peer, and streams whole replica states during
///        membership migration.
///
/// IDEA's own machinery ships update contents only inside resolution
/// rounds among top-layer writers; a replica group needs every durable
/// copy to hold the data even when a single coordinator does all the
/// writing.  A group has k = 3 members that replication keeps hot, so the
/// paper's two layers would save nothing: a rank runs no detection,
/// gossip, RanSub or resolution, and the agent alone keeps its replica in
/// step with the group:
///
///  * Push ("shard.replicate"): the coordinator's put() appends the write
///    to its store, then pushes the new update to every other rank.
///    Receivers apply it idempotently (ReplicaStore::apply_remote buffers
///    out-of-order arrivals).
///
///  * Anti-entropy ("shard.digest" / "shard.repair"): a push lost to the
///    network would leave a replica cold forever, so each agent may run
///    push-pull rounds.  A round sends the replica's per-writer update
///    counts (a vv::VersionVector, 12 bytes per writer: the store keeps
///    each writer's seqs contiguous, so counts alone say which updates a
///    peer lacks) to a peer.  The peer replies with the updates the digest
///    shows missing (ReplicaStore::updates_ahead_of) plus its own counts,
///    and the initiator pushes back whatever the peer lacks in turn.
///
///    Rounds run only where two replicas may really differ.  A peer is
///    matched while its entry equals the store's mutation_count().  Any
///    exchange that shows equal counts sets the entry, on the side that
///    sees them: the initiator when the reply needs no push-back, the
///    replier when the digest's counts equal its own, and the receiver of
///    a push-back when the pusher's counts equal its own after the apply.
///    While anti-entropy runs, a push also carries the pusher's counts
///    when sent, and an ack the acker's counts after the apply.  So a
///    push that lands matches its receiver with the pusher, and its ack
///    matches the pusher with the receiver.  A store that never mutated
///    starts matched with every peer: at placement every store is empty.
///    A restarted rank that is not acting takes its matches as current
///    once the restart has reloaded its checkpoint and re-adopted its own
///    writes (assume_matched): the coordinator's round heals it.
///
///    Rounds run on the star around the group's acting coordinator
///    (set_star).  Each round, the coordinator digests every unmatched
///    live peer, and any other rank digests only the coordinator; a dark
///    rank, whose member is down, is no one's star peer until it restarts.
///    A peer that owes this rank an ack for a tracked push (see acked
///    replication below) is left to that ack: no round digests it until
///    the ack lands or the update gives up.  Replication's own timeout
///    path recovers the push, as TCP recovers a lost segment by the
///    retransmission timer of the unacknowledged data (RFC 6298) rather
///    than by a separate probe.  A peer whose last ack showed it lacking
///    more than the pushes in flight will bring it (an update whose
///    re-sends gave up, or what a restart lost) is behind, and the rounds
///    digest it although it owes.  An ack with empty counts shows a store
///    that holds nothing, not unknown counts: a peer running anti-entropy
///    always acks with its counts, and one that holds nothing (a restart
///    that reloaded nothing, say) parks every push.  The round timer stops
///    once every star peer is matched or owes an ack without being behind,
///    and any store mutation re-arms it on the grid anti-entropy started
///    on.  A quiet group sends nothing, even while a member is down.
///
///    Why this converges: a match says the peer held at least what this
///    replica holds.  Stores only append, and a restarted peer, which
///    lost its state, is un-matched.  So a rank that holds an update a
///    star peer lacks has mutated since it last matched that peer, and its
///    rounds reach that peer until an exchange delivers the update.  An
///    update held only by a non-coordinator thus reaches the coordinator
///    in one round, and the other live ranks in the next, whatever the
///    loss pattern was.  A dark rank lost its state anyway.  Its restart
///    un-matches it at every star peer that may hold more: at the
///    coordinator (peer_restarted), or, when it returns as the
///    coordinator, at every survivor (a change of coordinator).  Their
///    next round heals it, in both directions: the reply to the round's
///    digest carries whatever the restarted rank holds that the
///    coordinator lacks, so a restarted follower's own matches may stand.
///    Leaving a rank that owes an ack to it delays these rounds but drops
///    none: every pair they reached before they still reach.  A rank owing
///    an ack is reached by its ack (equal counts match the pair; counts
///    short only by what it owes or holds parked leave it to the pushes in
///    flight; counts shorter than that mark it behind, and the next grid
///    round digests it, even while it owes newer acks), by the re-sends,
///    which carry the pusher's counts, or by the give-up's targeted
///    digest, after which the rounds include it again.  So a skipped pair
///    waits at most until its next ack lands or its owed updates give up
///    (max_resends + 1 timeouts after the put, unless a restart of the
///    peer re-armed the update's timer).  Without the behind mark a hot
///    file would starve a rank with a gap, an empty store's included: each
///    new put makes it owe again before a round.
///
///  * Dirty listing: the agent is its store's one MutationListener for the
///    rank's whole life.  Besides re-arming anti-entropy, the first
///    mutation after each checkpoint pass puts the file id on the
///    endpoint's dirty list (set_dirty_list), so a pass visits only the
///    replicas that changed instead of every hosted one.
///
///  * State streaming ("shard.migrate"): when membership changes move a
///    file to a new replica group, the new coordinator adopts the merged
///    log and streams it to the other ranks as one batch message each.
///
///  * Acked replication ("shard.ack", opt-in): with a resend timeout
///    configured, every replicate push is tracked until each peer acks
///    it, and each tracked update runs its own timer with a bounded
///    re-send budget.  Re-sends are cumulative, per silent rank rather
///    than per update: when a timer fires, each rank that has not acked
///    the update gets one push carrying every tracked update it has not
///    acked, and its one ack names every key the push held.  A rank that
///    got such a push less than half a timeout ago sits the firing out
///    (the firing still spends budget and re-arms), so a silent rank gets
///    at most one push per half timeout however many updates are
///    pending.  Budgets and give-up times stay per update.  This is the
///    crash-model plumbing — a coordinator whose replica died mid-
///    replication retries for a while and then gives up cleanly instead
///    of wedging, and a briefly-unreachable replica still converges
///    without waiting for anti-entropy.  A give-up is never silent: the
///    abandoned update's silent ranks get an immediate targeted digest,
///    so the group converges even with periodic anti-entropy off.  While
///    anti-entropy runs, a rank that owes an ack sits its rounds out; the
///    ack that pays its last owed one or shows it behind, or the give-up
///    of its last owed update, hands it back to them (update_rounds).
///
///  * Write concerns (put's PutConcern): a client-declared WriteConcern{w}
///    rides the same ack machinery — the put completes its callback once
///    w - 1 peers confirmed their apply, or fails it when the re-send
///    budget runs out first.  A receiver acks a push iff the push carries
///    the want_ack flag; the sender sets it whenever resends are on or
///    the put needs peer acks, whether or not anti-entropy runs.  Only a
///    rank's first ack of an update counts toward its concern.  Pushes
///    and acks have one body each; the counts they carry are empty (and
///    cost nothing on the wire) while the sender runs no anti-entropy.

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "net/transport.hpp"
#include "obs/observability.hpp"
#include "replica/store.hpp"
#include "vv/version_vector.hpp"

namespace idea::shard {

struct ReplicaSyncStats {
  std::uint64_t puts = 0;            ///< Local writes accepted.
  std::uint64_t pushed = 0;          ///< Updates sent to peers.
  std::uint64_t applied = 0;         ///< Remote updates applied here.
  // Anti-entropy.
  /// Digest rounds run here: one per round event that digests a peer; a
  /// round digests every unsettled star peer (see start_anti_entropy).
  std::uint64_t ae_rounds = 0;
  std::uint64_t digests_received = 0;
  std::uint64_t repairs_sent = 0;     ///< Repair messages sent.
  std::uint64_t repair_updates_sent = 0;
  std::uint64_t repair_updates_applied = 0;
  // Migration streaming.
  std::uint64_t migrate_updates_applied = 0;
  // Acked replication (all zero while the feature is off).
  std::uint64_t acks_received = 0;
  std::uint64_t resend_gaveups = 0;   ///< Updates abandoned after budget.
  /// Targeted digests sent at give-up time so an abandoned update cannot
  /// silently diverge the group (see on_resend_timeout).
  std::uint64_t gaveup_ae_digests = 0;
  // Write-concern puts (all zero until a client declares w > 1).
  std::uint64_t wack_tracked = 0;    ///< Puts awaiting a peer-ack target.
  std::uint64_t wack_satisfied = 0;  ///< Ack target reached.
  std::uint64_t wack_failed = 0;     ///< Abandoned before the target.
};

/// Opt-in replication ack/re-send behavior.  The zero default keeps every
/// pre-existing fixed-seed replay byte-identical: no acks are sent, no
/// timers armed.
struct ReplicaSyncOptions {
  /// Per-push ack timeout; a push unacked after this long is re-sent to
  /// the silent ranks.  0 disables acks and re-sends entirely.
  SimDuration resend_timeout = 0;
  /// Re-send budget per update; exhausted pushes are abandoned (bounded —
  /// anti-entropy owns healing a peer that stays dark, and a peer that
  /// crashed for good must not pin sender state forever).
  std::uint32_t max_resends = 2;
};

/// Outcome callback of one write-concern put: fired exactly once, either
/// when the ack target is reached (`satisfied`) or when the re-send budget
/// runs out / the agent tears down first.  `acks` counts confirmed group
/// applies including the coordinator's own; hinted stand-ins are credited
/// by the routing layer, not here.
using WriteConcernCallback =
    std::function<void(bool satisfied, std::uint32_t acks)>;

/// Ack requirement of one put (see ReplicaSyncAgent::put).  The empty
/// default is a plain w = 1 put with no callback.
struct PutConcern {
  /// Peer applies required beyond the coordinator's local one.  0 means
  /// w = 1: the local apply is the whole target, and on_result (if set)
  /// fires synchronously.
  std::uint32_t peer_acks_needed = 0;
  WriteConcernCallback on_result;
};

/// Body of a "shard.repair" message: the updates the digest sender was
/// missing, plus the replier's own per-writer counts so the initiator can
/// push back the other half of the delta (`respond` asks for exactly one
/// such reply, keeping a round at three messages, not a ping-pong).
///
/// `sender_counts` is charged like a digest's counts, 12 bytes per
/// writer; counts are all either side reads (update timestamps stay in
/// the EVV).
struct RepairPayload {
  std::vector<replica::Update> updates;
  vv::VersionVector sender_counts;
  bool respond = false;
};

class ReplicaSyncAgent final : public net::MessageHandler,
                               private replica::MutationListener {
 public:
  /// `store` and `transport` are borrowed; `transport` is the file's
  /// rank-space group transport, `group_size` its member count, and the
  /// store's node id is this replica's rank.  Registers itself as the
  /// store's mutation listener until destroyed; the caller routes the
  /// rank's inbound messages to on_message.
  ReplicaSyncAgent(replica::ReplicaStore& store, net::Transport& transport,
                   std::uint32_t group_size, ReplicaSyncOptions options = {});
  ~ReplicaSyncAgent() override;

  ReplicaSyncAgent(const ReplicaSyncAgent&) = delete;
  ReplicaSyncAgent& operator=(const ReplicaSyncAgent&) = delete;

  /// Append a write to the store, stamped with this rank's local clock,
  /// and push it to every other group member; returns the stored update
  /// (valid until the store next mutates).  A traced write (`tc` active)
  /// records each replication push as a wire span of `tc`'s trace,
  /// closed by the receiving rank at delivery.
  ///
  /// `concern.on_result`, when set, fires exactly once: synchronously
  /// when `peer_acks_needed` is 0 (w = 1); otherwise the pushes ask for
  /// acks, the put is tracked against the group's resend budget, and the
  /// callback is satisfied once `peer_acks_needed` distinct ranks
  /// confirmed their apply, or failed when the budget runs out first (the
  /// give-up path has then already scheduled targeted anti-entropy, so
  /// the data still converges even though the ack did not).
  const replica::Update& put(std::string content, double meta_delta,
                             PutConcern concern = {},
                             const obs::TraceContext& tc = {});

  /// Start anti-entropy with rounds on the grid now + n·period (0
  /// stops).  Rounds run only while a star peer is unsettled: unmatched
  /// at the store's current mutation_count(), and owing no ack or behind.
  /// Each round digests every such peer, so a pair exchanges within one
  /// period of becoming unsettled.  The timer stops once every star peer
  /// is settled, and the next store mutation, ack or give-up re-arms it
  /// on the same grid.  The owed acks are counted from the updates
  /// tracked now.  A store that never mutated starts matched with every
  /// peer (at placement every store is empty, so placement runs no
  /// round); any other store starts unmatched.
  void start_anti_entropy(SimDuration period);
  /// Stop anti-entropy for good: no rounds, and store mutations no
  /// longer re-arm it.
  void stop_anti_entropy();
  /// This rank restarted as a follower and its store now holds what the
  /// restart reloaded: take every match as current, so it runs no round
  /// of its own.  The coordinator un-matched it (peer_restarted), and the
  /// coordinator's round moves the delta both ways; a round of its own in
  /// the same instant would only fetch the same delta twice.
  void assume_matched();
  /// Peer `rank` restarted after a crash and lost what it held: un-match
  /// it (every other match stands), move the rounds to the restart's grid
  /// now + n·period, and send the peer now one push that carries every
  /// tracked update it has not acked, restarting those updates' timers
  /// without spending resend budget.
  void peer_restarted(NodeId rank);
  /// The group's acting coordinator is `acting`, and bit r of `dark` is
  /// set when rank r's member is down (rank 0 and none until told; ranks
  /// from 64 on always count as live).  Rounds run on the star around the
  /// coordinator: it digests every unmatched peer that is not dark, any
  /// other rank only the coordinator.  No exchange could match a dark
  /// rank, so leaving it out lets the rounds stop.  A change of
  /// coordinator forgets every match, because a rank matched with the old
  /// coordinator may hold pushes the new one lacks; a store that never
  /// mutated holds nothing, so it keeps its matches.
  void set_star(NodeId acting, std::uint64_t dark);

  /// Report this replica to its endpoint's checkpoint pass: append the
  /// file id to `dirty` now (a newly built replica is always dirty) and again
  /// on the first store mutation after each checkpoint_offered(), so a
  /// pass visits only the replicas that may differ from their durable
  /// record.  `dirty` is borrowed and must outlive the agent.
  void set_dirty_list(std::vector<FileId>& dirty);
  /// The checkpoint pass offered this replica to durable storage: its
  /// next store mutation lists it again.
  void checkpoint_offered() { listed_ = false; }

  /// One targeted digest exchange with `peer_rank`, outside the periodic
  /// rounds and their star.  Used by the give-up path and by the cluster
  /// to heal a specific returning member (hinted-handoff drain) without
  /// waiting for a round.  Like a round, it can match the peer.  No-op on
  /// self/out-of-range ranks.
  void anti_entropy_with(NodeId peer_rank);

  /// Observer for peer version counts learned from anti-entropy's
  /// counts: called as (peer_rank, peer_total_versions) whenever a digest,
  /// a repair or an ack reveals how much a peer holds.  The shard layer
  /// uses this to piggyback per-replica freshness hints to the request
  /// router without any extra messages.
  using FreshnessListener =
      std::function<void(NodeId peer_rank, std::uint64_t versions)>;
  void set_freshness_listener(FreshnessListener fn) {
    on_freshness_ = std::move(fn);
  }

  /// Hook this rank into the deployment's observability: `endpoint` is
  /// the rank's *global* endpoint id (self() is the group rank), used
  /// for the per-endpoint registry, span placement and log tags.  The
  /// agent records replicate/AE/migrate metrics into the endpoint
  /// registry, stamps wire spans onto traced messages, and adopts the
  /// pending repair trace the router parks for stale reads (the
  /// escalation→heal causal link).
  void set_observability(obs::Observability* observability, NodeId endpoint);

  /// Stream a full state batch to every other rank as "shard.migrate"
  /// messages sharing one payload allocation.  Used by the cluster after
  /// seeding this (coordinator) replica's store during migration; returns
  /// the number of messages sent.
  std::size_t stream_state(const std::vector<replica::Update>& updates);

  void on_message(const net::Message& msg) override;

  [[nodiscard]] const ReplicaSyncStats& stats() const { return stats_; }
  /// True while the round timer is armed: anti-entropy is started and
  /// some star peer is unsettled (see start_anti_entropy).  False when
  /// stopped, and when started but every star peer is settled.
  [[nodiscard]] bool anti_entropy_running() const {
    return ae_ != nullptr && ae_->timer != 0;
  }

  static const net::MsgType kReplicateType;  ///< Interned "shard.replicate".
  static const net::MsgType kDigestType;     ///< Interned "shard.digest".
  static const net::MsgType kRepairType;     ///< Interned "shard.repair".
  static const net::MsgType kMigrateType;    ///< Interned "shard.migrate".
  static const net::MsgType kAckType;        ///< Interned "shard.ack".

 private:
  /// Apply a batch of updates (push, repair or migration), bumping
  /// `applied_stat` per update it added to the log, parked successors it
  /// released included.
  std::size_t apply_batch(const std::vector<replica::Update>& updates,
                          std::uint64_t& applied_stat);
  /// Send `updates` and this replica's `counts` to `to_rank`; `respond`
  /// asks the receiver for the push-back.
  void send_repair(NodeId to_rank, std::vector<replica::Update> updates,
                   vv::VersionVector counts, bool respond,
                   const obs::TraceContext& tc = {});

  /// The deployment tracer (nullptr when untraced/unwired).
  [[nodiscard]] obs::Tracer* tracer() const {
    return obs_ == nullptr ? nullptr : obs_->tracer();
  }
  /// Open a wire span for `msg` under `tc` and stamp the trace/span ids
  /// onto the message; no-op (message untouched) when untraced.
  void stamp_wire_span(net::Message& msg, const obs::TraceContext& tc,
                       std::string_view span_name);

  /// One tracked update awaiting acks.
  struct PendingReplication {
    /// The put's push body; its one update rides every re-send push to a
    /// rank that has not acked it.
    net::Payload push;
    std::uint64_t unacked = 0;    ///< Bitmask of silent ranks.
    std::uint32_t resends_left = 0;
    std::uint64_t timer = 0;
    // Write-concern bookkeeping (inert for plain tracked puts).
    std::uint32_t acks_needed = 0;  ///< Peer acks the concern requires.
    std::uint32_t acks_got = 0;     ///< Distinct ranks confirmed so far.
    WriteConcernCallback on_result;  ///< Unfired iff non-null.
  };

  /// Build and send one digest message to `peer` (the shared anti-entropy
  /// body of the periodic round and the targeted exchange): the store's
  /// per-writer counts, charged 16 bytes of header plus 12 per writer, so
  /// a digest costs O(writers) whatever the log length.
  void send_digest(NodeId peer);
  /// What the round timer fires: digest every unmatched star peer.
  void anti_entropy_round();
  /// The store's one mutation listener for the rank's whole life: list
  /// the replica for the next checkpoint pass (once per pass), and, while
  /// anti-entropy runs, re-arm a stopped round timer on the grid (a
  /// mutation un-matches every peer).  A push's or a push-back's apply
  /// leaves the re-arm to its handler, which may match the sender first.
  void on_store_mutation() override;
  /// Keep the round timer armed exactly while some star peer is
  /// unsettled: arm a stopped one on the grid, or stop a running one.
  void update_rounds();
  /// `peer` is in this rank's star: any peer that is not dark on the
  /// coordinator, only the coordinator elsewhere.
  [[nodiscard]] bool in_star(NodeId peer) const {
    return peer != self() && (self() == acting_ || peer == acting_) &&
           (peer >= 64 || ((dark_ >> peer) & 1) == 0);
  }
  /// `peer` needs no round at the store's mutation_count() `count`: it is
  /// no star peer, it is matched, or it owes this rank an ack (which the
  /// ack or the update's give-up settles) and is not behind.
  [[nodiscard]] bool settled(NodeId peer, std::uint64_t count) const {
    const AntiEntropy::Peer& p = ae_->peers[peer];
    return !in_star(peer) || p.matched == count || (p.owed > 0 && !p.behind);
  }
  /// Every star peer is settled at the store's current mutation_count().
  [[nodiscard]] bool star_settled() const;
  /// An exchange with `peer` showed equal counts (on the initiator: the
  /// reply needed no push-back; on the replier: the digest's counts equal
  /// its own; on the receiver of a push or a push-back: the sender's
  /// counts equal its own after the apply; on the pusher: the ack's counts
  /// equal its own): match `peer` at the current mutation_count(), and
  /// stop the rounds once every star peer is matched.
  void note_identical(NodeId peer);
  /// `peer_rank` reported `counts` in a digest, repair or ack: tell the
  /// freshness listener.
  void note_report(NodeId peer_rank, const vv::VersionVector& counts);
  /// This store's per-writer counts while anti-entropy runs, for a push
  /// or ack to carry; empty otherwise, which a receiver reads as none
  /// carried (a store that pushed or applied an update has a writer).
  [[nodiscard]] vv::VersionVector counts_to_carry() const;

  /// This replica's rank.
  [[nodiscard]] NodeId self() const { return store_.node(); }

  /// The ack timeout tracked puts run under: the configured resend
  /// timeout, or a fixed default when a write concern needs tracking
  /// while the group's resend feature is off.
  [[nodiscard]] SimDuration effective_resend_timeout() const;

  /// Start tracking a just-pushed update; returns false when the group is
  /// too large for the rank bitmask (the caller fails the concern).
  bool track_pending(replica::UpdateKey key, net::Payload push,
                     std::uint32_t acks_needed, WriteConcernCallback on_result);
  /// `key`'s timer fired: spend one unit of its budget and push each of
  /// its silent ranks that got no re-send push in the last half timeout,
  /// or, with the budget spent, give the update up.
  void on_resend_timeout(replica::UpdateKey key);
  /// Send `rank` one push carrying every tracked update it has not acked,
  /// in key order, and the counts this store carries now; `rank` must be
  /// silent for at least one tracked update.
  void push_unacked(NodeId rank);
  /// Fire-and-clear a pending put's concern callback (exactly-once).
  void finish_concern(PendingReplication& pending, bool satisfied);

  replica::ReplicaStore& store_;
  net::Transport& transport_;
  std::uint32_t group_size_;
  /// True while the file id sits on dirty_ awaiting a checkpoint pass.
  bool listed_ = false;
  /// True while a push or a push-back applies (see on_store_mutation).
  bool applying_push_ = false;
  /// The endpoint's checkpoint dirty list; nullptr without checkpoints.
  std::vector<FileId>* dirty_ = nullptr;
  ReplicaSyncOptions options_;
  ReplicaSyncStats stats_;
  std::map<replica::UpdateKey, PendingReplication> pending_acks_;
  /// Per rank: when push_unacked last pushed it, for the half-timeout
  /// spacing.  Allocated by the first such push.
  std::unique_ptr<SimTime[]> resent_at_;

  /// Anti-entropy state, allocated by start_anti_entropy: an agent with
  /// anti-entropy off carries only the null pointer.
  struct AntiEntropy {
    SimDuration period = 0;
    SimTime origin = 0;       ///< Rounds fire at origin + n·period.
    std::uint64_t timer = 0;  ///< Armed round timer, 0 when stopped.
    /// What the rounds know of one peer rank.  One vector holds them all,
    /// so the state costs one allocation whatever it tracks.
    struct Peer {
      /// The store's mutation_count() at the last exchange with the peer
      /// that showed equal counts (kUnmatched before the first).  The
      /// peer is matched while this equals the current count.
      std::uint64_t matched = 0;
      /// How many tracked updates the peer has not acked: the
      /// pending_acks_ entries whose unacked mask has its bit set.
      std::uint32_t owed = 0;
      /// The peer's last ack showed it lacking more than the pushes in
      /// flight will bring it (say, an update whose re-sends gave up, or
      /// all a restart lost), so owing does not settle it.
      bool behind = false;
    };
    std::vector<Peer> peers;  ///< Indexed by rank.
    /// Rounds since a repair last applied here (the ae.heal_rounds
    /// histogram).  Kept here rather than in the agent, which every
    /// placed rank carries, so resent_at_ costs the agent no size.
    std::uint64_t rounds_since_heal = 0;
  };
  static constexpr std::uint64_t kUnmatched = ~std::uint64_t{0};
  std::unique_ptr<AntiEntropy> ae_;

  FreshnessListener on_freshness_;
  obs::Observability* obs_ = nullptr;
  NodeId endpoint_ = kNoNode;  ///< Global endpoint id of this rank.
  /// The group's acting coordinator, the centre of the round star.
  NodeId acting_ = 0;
  /// The group's dark ranks as a rank bitmask, left out of the star (see
  /// set_star).
  std::uint64_t dark_ = 0;
  obs::Meter meter_;           ///< This endpoint's registry (null = off).
};

}  // namespace idea::shard
