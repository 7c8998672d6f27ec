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
///    network would leave a replica cold forever, so the group's acting
///    coordinator may run push-pull rounds.  A round sends the replica's
///    per-writer update counts (a vv::VersionVector, 12 bytes per writer:
///    the store keeps each writer's seqs contiguous, so counts alone say
///    which updates a peer lacks) to a follower.  The follower replies
///    with the updates the digest shows missing
///    (ReplicaStore::updates_ahead_of) plus its own counts, and the
///    coordinator pushes back whatever the follower lacks in turn.
///
///    Only the acting coordinator runs rounds (set_star), as only a Raft
///    leader checks its followers' logs: each round digests every
///    unsettled live follower, a follower only answers, and a dark rank,
///    whose member is down, is digested by no one until it restarts.  A
///    follower is matched while its entry equals the store's
///    mutation_count().  The coordinator sets the entry when an exchange
///    shows equal counts: a reply that needs no push-back and after whose
///    apply its counts equal the replier's, or, while anti-entropy runs,
///    an ack whose counts (the acker's after the apply) equal its own.  A
///    migration stream asks for such an ack, so a stream that lands
///    matches its receiver.  A store that never mutated starts matched
///    with every peer: at placement every store is empty.  A rank that
///    becomes acting, when the coordinator crashes or when it restarts
///    (forget_matches), forgets every match, even with an empty store.
///
///    A follower that owes the coordinator an ack for a tracked push (see
///    acked replication below) is left to that ack: no round digests it
///    until the ack lands or the update gives up.  Replication's own
///    timeout path recovers the push, as TCP recovers a lost segment by
///    the retransmission timer of the unacknowledged data (RFC 6298)
///    rather than by a separate probe.  A follower differs, and the
///    rounds digest it although it owes, when its last ack showed it
///    lacking more than the pushes in flight bring it (an update whose
///    re-sends gave up, or what a restart lost) or holding an update the
///    coordinator lacks (a push of the old coordinator, or what a
///    restarted coordinator lost).  An ack with empty counts shows a
///    store that holds nothing, not unknown counts: a rank running
///    anti-entropy always acks with its counts, and one that holds
///    nothing (a restart that reloaded nothing, say) parks every push.
///    The round timer stops once every live follower is matched or owes
///    an ack without differing, and any store mutation re-arms it on the
///    grid anti-entropy started on.  A quiet group sends nothing, even
///    while a member is down.
///
///    Why this converges: a match says the follower held what the
///    coordinator held at that mutation_count(), and stores only append.
///    So a follower lacks an update the coordinator holds only if the
///    coordinator has mutated since the match, or the follower restarted
///    and lost it (peer_restarted un-matches it).  A follower holds an
///    update the coordinator lacks only after a coordinator change (the
///    old coordinator's pushes reached it), a restart (of the coordinator,
///    which lost its state, or of the follower, which reloaded a
///    checkpoint) or a migration (the new group starts from the adopter's
///    snapshot), and each of those un-matches the pair at the
///    coordinator: a new or restarted coordinator forgets every match, a
///    restarted follower is un-matched, and the adopter's import mutates
///    its store.  So the coordinator's rounds reach every live follower
///    it may differ from, and an exchange moves the delta both ways: the
///    reply carries what the follower holds that the coordinator lacks,
///    the push-back the rest.  A dark rank lost its state anyway, and its
///    restart un-matches it.  Leaving a follower that owes an ack to it
///    delays these rounds but drops none: every pair they reached before
///    they still reach.  A follower owing an ack is reached by its ack or
///    by the give-up's targeted digest, after which the rounds include it
///    again.  An ack's counts match the pair when equal to the
///    coordinator's, leave it to the pushes in flight when short only by
///    what the follower owes or holds parked, and otherwise, in either
///    direction, mark it as differing, so the next grid round digests it
///    even while it owes newer acks.  So a skipped pair waits at most
///    until its next ack lands or its owed updates give up (max_resends +
///    1 timeouts after the put, unless a restart of the follower re-armed
///    the update's timer), and then one period.  Without the mark a hot
///    file would starve such a pair, an empty store's included: each new
///    put makes the follower owe again before a round.
///
///  * Dirty listing: the agent is its store's one MutationListener for the
///    rank's whole life.  Besides re-arming anti-entropy, the first
///    mutation after each checkpoint pass puts the file id on the
///    endpoint's dirty list (set_dirty_list), so a pass visits only the
///    replicas that changed instead of every hosted one.
///
///  * State streaming ("shard.migrate"): when membership changes move a
///    file to a new replica group, the new coordinator adopts the merged
///    log and streams it to the other live ranks as one batch message
///    each.
///
///  * Acked replication ("shard.ack", opt-in): with a resend timeout
///    configured, every replicate push is tracked until each peer acks
///    it, and each tracked update runs its own timer with a bounded
///    re-send budget.  Re-sends are cumulative, per silent rank rather
///    than per update: when a timer fires, each live rank that has not
///    acked the update gets one push carrying every tracked update it has
///    not acked, and its one ack names every key the push held.  A rank
///    that got such a push less than half a timeout ago sits the firing
///    out (the firing still spends budget and re-arms), so a silent rank
///    gets at most one push per half timeout however many updates are
///    pending.  Budgets and give-up times stay per update.  This is the
///    crash-model plumbing — a coordinator whose replica died mid-
///    replication retries for a while and then gives up cleanly instead
///    of wedging, and a briefly-unreachable replica still converges
///    without waiting for anti-entropy.  A give-up is never silent: the
///    abandoned update's live silent ranks get an immediate targeted
///    digest, so the group converges even with periodic anti-entropy off.
///    A dark rank is sent nothing, but stays silent for the updates it
///    has not acked, so budgets and give-up times are those of a live
///    rank that lost every push, and its restart brings it one push of
///    them (peer_restarted).  While anti-entropy runs, a rank that owes
///    an ack sits its rounds out; the ack that pays its last owed one or
///    shows it differing, or the give-up of its last owed update, hands
///    it back to them (update_rounds).
///
///  * Write concerns (put's PutConcern): a client-declared WriteConcern{w}
///    rides the same ack machinery — the put completes its callback once
///    w - 1 peers confirmed their apply, or fails it when the re-send
///    budget runs out first.  A receiver acks a push iff the push carries
///    the want_ack flag; the sender sets it whenever resends are on or
///    the put needs peer acks, whether or not anti-entropy runs.  Only a
///    rank's first ack of an update counts toward its concern.  A push
///    carries updates only; an ack carries the acker's counts while it
///    runs anti-entropy (empty, and free on the wire, otherwise).

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
  /// stops).  Rounds run only on the acting coordinator, and only while a
  /// live follower is unsettled: unmatched at the store's current
  /// mutation_count(), and owing no ack or differing.  Each round digests
  /// every such follower, so a pair exchanges within one period of
  /// becoming unsettled.  The timer stops once every live follower is
  /// settled, and the next store mutation, ack or give-up re-arms it on
  /// the same grid.  The owed acks are counted from the updates tracked
  /// now.  A store that never mutated starts matched with every peer (at
  /// placement every store is empty, so placement runs no round, even
  /// while rank 0's member is down); any other store starts unmatched.
  void start_anti_entropy(SimDuration period);
  /// Stop anti-entropy for good: no rounds, and store mutations no
  /// longer re-arm it.
  void stop_anti_entropy();
  /// Forget every match, so the next round digests every live follower.
  /// The cluster calls it on a restarted rank that returns acting: a
  /// survivor may hold what the restart lost, even when it reloaded
  /// nothing and its store looks as fresh as at placement.
  void forget_matches();
  /// Peer `rank` restarted after a crash and lost what it held: un-match
  /// it (every other match stands), move the rounds to the restart's grid
  /// now + n·period, and send the peer now one push that carries every
  /// tracked update it has not acked, restarting those updates' timers
  /// without spending resend budget.  On the acting coordinator the
  /// un-match gets the peer digested at the next grid round, which moves
  /// the delta both ways.
  void peer_restarted(NodeId rank);
  /// The group's acting coordinator is `acting`, and bit r of `dark` is
  /// set when rank r's member is down (rank 0 and none until told; ranks
  /// from 64 on always count as live).  Only the coordinator runs rounds:
  /// it digests every unmatched follower that is not dark, and a follower
  /// digests no one.  No exchange could match a dark rank, so leaving it
  /// out lets the rounds stop; pushes, re-sends, streams and give-up
  /// digests skip it too.  A rank that becomes acting forgets every
  /// match, even with an empty store: a follower may hold pushes of the
  /// old coordinator that the new one lacks.  A newly built agent's first
  /// star is no change: its store is empty, or the restart that built it
  /// forgets its matches (forget_matches).
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

  /// Stream a full state batch to every other live rank as
  /// "shard.migrate" messages sharing one payload allocation.  Used by the
  /// cluster after seeding this (coordinator) replica's store during
  /// migration; returns the number of messages sent.  While anti-entropy
  /// runs, each stream asks for an ack carrying the receiver's counts and
  /// no keys, which matches the pair.
  std::size_t stream_state(const std::vector<replica::Update>& updates);

  void on_message(const net::Message& msg) override;

  [[nodiscard]] const ReplicaSyncStats& stats() const { return stats_; }
  /// True while the round timer is armed: anti-entropy is started, this
  /// rank is acting, and some live follower is unsettled (see
  /// start_anti_entropy).  False when stopped, on a follower, and when
  /// every live follower is settled.
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
  /// Ack `keys` (none for a migration stream) to `to_rank`, with the
  /// counts this store carries now.
  void send_ack(NodeId to_rank, std::vector<replica::UpdateKey> keys);

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
  /// mutation un-matches every peer).
  void on_store_mutation() override;
  /// Keep the round timer armed exactly while some star peer is
  /// unsettled: arm a stopped one on the grid, or stop a running one.
  void update_rounds();
  /// Rank `rank`'s member is down (see set_star).
  [[nodiscard]] bool is_dark(NodeId rank) const {
    return rank < 64 && ((dark_ >> rank) & 1) != 0;
  }
  /// `peer` is in this rank's star: on the acting coordinator (rank 0
  /// until set_star names one), any other rank that is not dark; on a
  /// follower, none.
  [[nodiscard]] bool in_star(NodeId peer) const {
    const NodeId acting = acting_ == kNoNode ? 0 : acting_;
    return self() == acting && peer != self() && !is_dark(peer);
  }
  /// `peer` needs no round at the store's mutation_count() `count`: it is
  /// no star peer, it is matched, or it owes this rank an ack (which the
  /// ack or the update's give-up settles) and does not differ.
  [[nodiscard]] bool settled(NodeId peer, std::uint64_t count) const {
    const AntiEntropy::Peer& p = ae_->peers[peer];
    return !in_star(peer) || p.matched == count ||
           (p.owed > 0 && !p.differs);
  }
  /// Every star peer is settled at the store's current mutation_count().
  [[nodiscard]] bool star_settled() const;
  /// An exchange with `peer` showed equal counts (on the initiator: the
  /// reply needed no push-back and its counts equal the initiator's after
  /// the apply; on the pusher or streamer: the ack's counts equal its
  /// own): match `peer` at the current mutation_count(), and stop the
  /// rounds once every star peer is settled.
  void note_identical(NodeId peer);
  /// `peer_rank` reported `counts` in a digest, repair or ack: tell the
  /// freshness listener.
  void note_report(NodeId peer_rank, const vv::VersionVector& counts);
  /// This store's per-writer counts while anti-entropy runs, for an ack
  /// to carry; empty otherwise, which a receiver reads as none carried
  /// (a store that applied an update has a writer).
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
  /// its live silent ranks that got no re-send push in the last half
  /// timeout, or, with the budget spent, give the update up.
  void on_resend_timeout(replica::UpdateKey key);
  /// Send `rank` one push carrying every tracked update it has not acked,
  /// in key order; `rank` must be silent for at least one tracked update.
  void push_unacked(NodeId rank);
  /// Fire-and-clear a pending put's concern callback (exactly-once).
  void finish_concern(PendingReplication& pending, bool satisfied);

  replica::ReplicaStore& store_;
  net::Transport& transport_;
  std::uint32_t group_size_;
  /// True while the file id sits on dirty_ awaiting a checkpoint pass.
  bool listed_ = false;
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
      /// The peer's last ack showed the pair differing by more than the
      /// pushes in flight will close (the peer lacks more than they
      /// bring it, or holds an update this store lacks), so owing does
      /// not settle it.
      bool differs = false;
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
  /// The group's acting coordinator, the centre of the round star;
  /// kNoNode until the first set_star, and rank 0 acts until then.
  NodeId acting_ = kNoNode;
  /// The group's dark ranks as a rank bitmask, left out of the star (see
  /// set_star).
  std::uint64_t dark_ = 0;
  obs::Meter meter_;           ///< This endpoint's registry (null = off).
};

}  // namespace idea::shard
