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
///    push-pull rounds: it sends its per-writer update counts (a
///    vv::VersionVector, 12 bytes per writer: the store keeps each
///    writer's seqs contiguous, so counts alone say which updates a peer
///    lacks) to one peer; the peer replies with the updates the digest
///    shows missing (ReplicaStore::updates_ahead_of) plus its own counts,
///    and the initiator pushes back whatever the peer lacks in turn.
///    Rounds run only while this replica may differ from some peer: an
///    exchange that found the pair identical marks that peer as matched at
///    the store's mutation_count(), rounds rotate over the peers not
///    matched at the current count, and the round timer stops once every
///    peer is matched.  Both sides match on one exchange: the initiator
///    when the reply needs no push-back, the replier when it has nothing
///    to send and the digest's counts equal its own.  Any store mutation
///    re-arms the rounds on the grid anti-entropy started on.  A replica
///    holding an update a peer lacks has mutated since it last matched
///    that peer, so it keeps digesting until the peer has it: any single
///    surviving copy of an update still spreads to the whole group in
///    O(group size) rounds, whatever the loss pattern was, and a quiet
///    group sends nothing.
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
///    it; unacked peers get a bounded number of re-sends.  This is the
///    crash-model plumbing — a coordinator whose replica died mid-
///    replication retries for a while and then gives up cleanly instead
///    of wedging, and a briefly-unreachable replica still converges
///    without waiting for anti-entropy.  A give-up is never silent: the
///    abandoned update's silent ranks get an immediate targeted digest,
///    so the group converges even with periodic anti-entropy off.
///
///  * Write concerns (put's PutConcern): a client-declared WriteConcern{w}
///    rides the same ack machinery — the put completes its callback once
///    w - 1 peers confirmed their apply, or fails it when the re-send
///    budget runs out first.  A receiver acks a push iff the push carries
///    the want_ack flag; the sender sets it whenever resends are on or
///    the put needs peer acks.

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
  std::uint64_t ae_rounds = 0;        ///< Digest rounds initiated here.
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

  /// Start anti-entropy with rounds on the grid now + n·period (a
  /// restart forgets every match; 0 stops).  Rounds run only while this
  /// replica may differ from some peer: each round digests the next peer
  /// in a deterministic rotation that skips peers matched at the store's
  /// current mutation_count(), so every unmatched pair exchanges within
  /// group_size - 1 periods.  The timer stops once every peer is matched
  /// and the next store mutation re-arms it on the same grid.  Every peer
  /// starts unmatched, so a new group exchanges at least once per pair
  /// (which is also how the router first learns each rank's freshness
  /// hint); an exchange that finds the pair identical matches it on both
  /// sides, so after a put that reached every rank each pair exchanges
  /// once, not once per side.
  void start_anti_entropy(SimDuration period);
  /// Stop anti-entropy for good: no rounds, and store mutations no
  /// longer re-arm it.
  void stop_anti_entropy();

  /// Report this replica to its endpoint's checkpoint pass: append the
  /// file id to `dirty` now (a new group epoch is always dirty) and again
  /// on the first store mutation after each checkpoint_offered(), so a
  /// pass visits only the replicas that may differ from their durable
  /// record.  `dirty` is borrowed and must outlive the agent.
  void set_dirty_list(std::vector<FileId>& dirty);
  /// The checkpoint pass offered this replica to durable storage: its
  /// next store mutation lists it again.
  void checkpoint_offered() { listed_ = false; }

  /// One targeted digest exchange with `peer_rank`, outside the periodic
  /// rotation (it does not advance the round-robin cursor).  Used by the
  /// give-up path and by the cluster to heal a specific returning member
  /// (hinted-handoff drain) without waiting for the rotation to come
  /// around.  Like a round, it can match the peer.  No-op on
  /// self/out-of-range ranks.
  void anti_entropy_with(NodeId peer_rank);

  /// Observer for peer version counts learned from the digest/repair
  /// exchange: called as (peer_rank, peer_total_versions) whenever a
  /// digest or repair reveals how much a peer holds.  The shard layer
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
  /// this replica may still differ from some peer.  False when stopped,
  /// and when started but every peer is matched.
  [[nodiscard]] bool anti_entropy_running() const {
    return ae_ != nullptr && ae_->timer != 0;
  }

  static const net::MsgType kReplicateType;  ///< Interned "shard.replicate".
  static const net::MsgType kDigestType;     ///< Interned "shard.digest".
  static const net::MsgType kRepairType;     ///< Interned "shard.repair".
  static const net::MsgType kMigrateType;    ///< Interned "shard.migrate".
  static const net::MsgType kAckType;        ///< Interned "shard.ack".

 private:
  /// Apply a batch of updates (repair or migration), bumping `applied_stat`
  /// per newly applied update.
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

  /// One tracked replicate push awaiting acks.
  struct PendingReplication {
    replica::Update update;       ///< Kept for re-sends.
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
  /// What the round timer fires: digest the next unmatched peer.
  void anti_entropy_round();
  /// The store's one mutation listener for the rank's whole life: list
  /// the replica for the next checkpoint pass (once per pass), and, while
  /// anti-entropy runs, re-arm a stopped round timer on the grid (a
  /// mutation un-matches every peer).
  void on_store_mutation() override;
  /// An exchange with `peer` found the pair identical (on the initiator:
  /// the reply needed no push-back; on the replier: the digest's counts
  /// equal its own): match `peer` at the current mutation_count(), and
  /// stop the rounds once every peer is matched.
  void note_identical(NodeId peer);
  /// `peer_rank` reported `counts` in a digest or repair: tell the
  /// freshness listener.
  void note_report(NodeId peer_rank, const vv::VersionVector& counts);

  /// This replica's rank.
  [[nodiscard]] NodeId self() const { return store_.node(); }

  /// The ack timeout tracked puts run under: the configured resend
  /// timeout, or a fixed default when a write concern needs tracking
  /// while the group's resend feature is off.
  [[nodiscard]] SimDuration effective_resend_timeout() const;

  /// Start tracking a just-pushed update; returns false when the group is
  /// too large for the rank bitmask (the caller fails the concern).
  bool track_pending(const replica::Update& u, std::uint32_t acks_needed,
                     WriteConcernCallback on_result);
  void on_resend_timeout(replica::UpdateKey key);
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

  /// Anti-entropy state, allocated by start_anti_entropy: an agent with
  /// anti-entropy off carries only the null pointer.
  struct AntiEntropy {
    SimDuration period = 0;
    SimTime origin = 0;          ///< Rounds fire at origin + n·period.
    std::uint64_t timer = 0;     ///< Armed round timer, 0 when stopped.
    std::uint32_t rotation = 0;  ///< Round-robin peer cursor.
    /// Per peer rank: the store's mutation_count() at the last exchange
    /// with it that found the pair identical (kUnmatched before the
    /// first).  A peer is matched while this equals the current count.
    std::vector<std::uint64_t> matched;
  };
  static constexpr std::uint64_t kUnmatched = ~std::uint64_t{0};
  std::unique_ptr<AntiEntropy> ae_;

  FreshnessListener on_freshness_;
  obs::Observability* obs_ = nullptr;
  NodeId endpoint_ = kNoNode;  ///< Global endpoint id of this rank.
  obs::Meter meter_;           ///< This endpoint's registry (null = off).
  std::uint64_t rounds_since_heal_ = 0;  ///< AE rounds since last repair.
};

}  // namespace idea::shard
