#pragma once
/// \file sharded_cluster.hpp
/// \brief Multi-tenant deployment: N IdeaService endpoints, files placed
///        across them by consistent hashing.
///
/// The seed system runs one IDEA stack per file on a handful of nodes;
/// this layer is the production-scale arrangement the ROADMAP asks for.
/// A ShardedCluster stands up `endpoints` IdeaService endpoints over one
/// simulated transport (optionally wrapped in a BatchingTransport so the
/// routing fan-out coalesces per tick), and places every file on the
/// replica group the HashRing assigns it.  Each replica talks to its
/// group through a rank-translating GroupTransport, so every file's group
/// runs separately — §4.1's per-file independence, now across thousands
/// of tenants.  A group has k members that replication keeps hot, so the
/// paper's two layers would save nothing here: a rank holds a store-only
/// replica and a ReplicaSyncAgent, and the group converges through pushes
/// and anti-entropy instead of detection and resolution.  Nothing here
/// measures the paper's consistency level (Formula 1 over the detector's
/// triple), which lives only on the single-file path; the adaptive
/// controller acts on router escalations and measured stale reads.
///
/// A placed file's FileGroup record owns every replica of the file, one
/// GroupRank per member; closing or migrating a group erases the record.
/// A crash empties the member's rank and its restart builds just that
/// rank again; the other members carry on.  The record is also the only
/// route: an endpoint's IdeaService asks the cluster (its
/// core::FileSinks) for each inbound message's sink, and the cluster
/// answers from a file id -> record index with the receiving endpoint's
/// rank transport, or nullptr (drop) for a closed file, a non-member or
/// a dark rank.
///
/// Elastic membership: add_endpoint()/remove_endpoint() recompute the
/// ring and migrate exactly the files whose replica group changed (the
/// set HashRing::rebalance quantifies).  A migrated file's group is
/// rebuilt on the new members — a fresh group epoch: replicas and agents
/// restart, rank ids are reassigned by the new ring order — and its
/// state moves by streaming: the union of the old replicas' logs seeds
/// the new coordinator synchronously (its durable hand-off), which then
/// streams the batch to the other ranks as "shard.migrate" messages over
/// the new GroupTransport, subject to real latency and loss.  Anti-
/// entropy (config.anti_entropy_period) heals whatever the stream or the
/// regular replication pushes lose.

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "adapt/controller.hpp"
#include "core/idea_node.hpp"
#include "core/service.hpp"
#include "net/batching_transport.hpp"
#include "net/sim_transport.hpp"
#include "obs/observability.hpp"
#include "replica/checkpoint.hpp"
#include "replica/hint_store.hpp"
#include "runtime/options.hpp"
#include "shard/group_transport.hpp"
#include "shard/hash_ring.hpp"
#include "shard/replica_sync.hpp"
#include "shard/request_router.hpp"
#include "sim/latency.hpp"
#include "sim/simulator.hpp"

namespace idea::shard {

/// A deployment's settings.  Files are placed on a HashRing, whose 96
/// points per endpoint are fixed.
struct ShardedClusterConfig {
  std::uint32_t endpoints = 8;    ///< Service endpoints to stand up.
  std::uint32_t replication = 3;  ///< Replica-group size k per file.
  /// Unread: a rank builds no paper stack.  Kept only because
  /// perfbench/idea_bench.cpp still sets it.
  core::IdeaConfig idea;
  sim::PlanetLabParams latency;
  net::SimTransportOptions transport;
  bool batching = true;  ///< Coalesce same-pair sends per tick.
  net::BatchingOptions batch;
  std::uint64_t seed = 2007;
  /// Period of each replica's anti-entropy rounds, which run only while
  /// the replica may differ from a peer; 0 disables them (the default
  /// keeps fixed-seed replays of push-only deployments byte-identical
  /// with earlier captures).
  SimDuration anti_entropy_period = 0;
  /// Cluster-wide observability (metrics registries + causal tracing).
  /// Off by default; enabling it is behavior-neutral — recording draws no
  /// RNG and sends no messages, so fixed-seed replays stay byte-identical
  /// (the determinism goldens run with it on).
  obs::ObservabilityConfig observability;
  /// Durable checkpointing for crash recovery (engine + period).
  /// Off by default; enabling it is behavior-neutral too — checkpoint
  /// passes draw no RNG and send no messages, so existing goldens hold.
  replica::CheckpointConfig checkpoint;
  /// Per-group replication ack/re-send (see ReplicaSyncOptions).  0 keeps
  /// the ack machinery off and pre-existing replays byte-identical.
  SimDuration replication_resend_timeout = 0;
  std::uint32_t replication_max_resends = 2;
  /// Decay horizon for the router's freshness hints: a hint older than
  /// this stops informing bounded-staleness replica selection (the serve
  /// path's exact bound check was always the safety net — this keeps a
  /// replica hinted fresh once from attracting reads after it diverges).
  /// Routing consults hints without sending messages or drawing RNG, so
  /// the default does not perturb write/AE-only replays.
  SimDuration freshness_hint_ttl = sec(10);
  /// Adaptive consistency driven by router escalations and measured
  /// stale reads (see adapt/controller.hpp).  Off by default: no
  /// controller is constructed, routing is byte-identical to the
  /// pre-adaptive build, and existing goldens hold.
  adapt::ControllerConfig adapt;
  /// Multicore execution (see runtime/options.hpp).  Consumed by
  /// runtime::ShardedFleet, which splits `endpoints` across ring segments
  /// and drives them on a worker pool; a ShardedCluster itself is always
  /// single-threaded (`threads == 1`, the default, is the determinism
  /// oracle the fleet is checked against).
  runtime::RuntimeOptions runtime;

  ShardedClusterConfig() { sync_sizes(); }

  /// Propagate `endpoints` into the nested sizes.  Call after changing it.
  void sync_sizes() {
    latency.nodes = endpoints;
    transport.node_count = endpoints;
  }
};

/// What one add_endpoint()/remove_endpoint() call did.
struct MembershipChange {
  NodeId endpoint = kNoNode;  ///< The joining/leaving endpoint (kNoNode if
                              ///< the call was a no-op).
  /// The incarnation the endpoint joined with: 0 for a brand-new id,
  /// n > 0 for the (n+1)-th life of a reused id.
  std::uint32_t incarnation = 0;
  /// Ring-placement delta over the files that were placed at the time of
  /// the change; files_migrated must equal rebalance.group_changed.
  RebalanceStats rebalance;
  std::size_t files_migrated = 0;   ///< Groups torn down and rebuilt.
  std::size_t state_updates = 0;    ///< Snapshot updates handed over.
  std::size_t stream_messages = 0;  ///< "shard.migrate" messages sent.
};

/// What one crash_endpoint() call destroyed.
struct CrashReport {
  NodeId endpoint = kNoNode;  ///< kNoNode if the call was a no-op.
  std::uint32_t incarnation = 0;  ///< The life that just died.
  SimTime at = 0;
  std::size_t groups_affected = 0;  ///< Placed groups that lost a member.
  /// Applied updates the endpoint held in RAM at the crash (what durable
  /// checkpoints minus the gap get back).
  std::size_t volatile_updates_lost = 0;
};

/// What one restart_endpoint() call recovered.
struct RecoveryReport {
  NodeId endpoint = kNoNode;  ///< kNoNode if the call was a no-op.
  std::uint32_t incarnation = 0;  ///< The new life.
  SimTime downtime = 0;
  std::size_t files_recovered = 0;     ///< Groups rejoined.
  std::size_t checkpoint_files = 0;    ///< Files restored from a checkpoint.
  std::size_t checkpoint_updates = 0;  ///< Updates reloaded from durable
                                       ///< storage (no wire traffic).
  /// Own-writer continuation updates reloaded from survivors: writes this
  /// endpoint coordinated after its last checkpoint but before the crash
  /// live on in the group, and the restarted replica must re-adopt them
  /// before accepting new writes or it would reuse sequence numbers.
  std::size_t reconciled_updates = 0;
  /// Checkpoint→crash delta left for anti-entropy to stream — the O(delta)
  /// recovery traffic (vs O(log) when no checkpoint exists).
  std::size_t gap_updates = 0;
  /// Hinted-handoff drain: updates parked at stand-ins while this
  /// endpoint was down, handed to the acting coordinator on restart...
  std::size_t hinted_updates = 0;
  /// ...of which this many were already held there (exactly-once: a
  /// duplicate import is counted, never re-applied).
  std::size_t hinted_duplicates = 0;
};

/// One group member's replica of a placed file: its transport, a
/// store-only core::IdeaNode holding the replica, and the sync agent that
/// receives the rank's messages.  The fields are declared in construction
/// order, so destroying a rank runs agent -> replica -> transport: the
/// agent cancels its timers through the transport and leaves the store.
/// A dark rank (a crashed member) is all null.
struct GroupRank {
  std::unique_ptr<GroupTransport> transport;
  std::unique_ptr<core::IdeaNode> node;  ///< Store-only: no paper stack.
  std::unique_ptr<ReplicaSyncAgent> sync;
  FreshnessHint hint;  ///< The router's last observation of this replica.
};

/// A placed file's record: its group and every member's replica.
struct FileGroup {
  std::vector<NodeId> members;  ///< rank -> endpoint id
  std::vector<GroupRank> ranks;
  /// The group epoch every rank's transport stamps and fences on (see
  /// GroupTransport), taken when the file was placed on these members.
  std::uint32_t epoch = 0;
  /// Until then the post-migration state stream may still be in flight:
  /// the non-coordinator ranks are cold, so policy reads pin to the
  /// already-warm acting coordinator.  0 = no migration window.
  SimTime migration_until = 0;

  /// The one rule that picks the acting coordinator: the lowest live rank
  /// — rank 0 unless it crashed, in which case reads, writes and migration
  /// hand-offs fail over down the rank order (rank space is multi-writer,
  /// so this is safe).  ranks.size() when every member is down.
  [[nodiscard]] std::uint32_t acting_rank() const {
    std::uint32_t rank = 0;
    while (rank < ranks.size() && ranks[rank].node == nullptr) ++rank;
    return rank;
  }

  /// Rank of `endpoint` in the group; members.size() when it is absent.
  [[nodiscard]] std::uint32_t rank_of(NodeId endpoint) const {
    return static_cast<std::uint32_t>(
        std::find(members.begin(), members.end(), endpoint) -
        members.begin());
  }

  /// Where the file's messages arriving at `endpoint` go: that member's
  /// rank transport; nullptr when the endpoint is not a member or its
  /// rank is dark.
  [[nodiscard]] net::MessageHandler* sink(NodeId endpoint) const {
    const std::uint32_t rank = rank_of(endpoint);
    return rank < ranks.size() ? ranks[rank].transport.get() : nullptr;
  }
};

class ShardedCluster : public core::FileSinks {
 public:
  explicit ShardedCluster(ShardedClusterConfig config);
  ~ShardedCluster();

  // ------------------------------------------------------------------
  // Membership
  // ------------------------------------------------------------------

  /// Stand up a new endpoint, add it to the ring, and migrate every
  /// placed file whose replica group the new points intercept.  The id
  /// is the smallest free id when endpoints left before (reused with a
  /// bumped incarnation, so a long-lived churning cluster's id space
  /// stays dense instead of growing a hole per departure), else the next
  /// dense id.  Migration is synchronous up to the streaming sends: when
  /// this returns, placements and coordinators reflect the new ring, new
  /// coordinators already hold full state, and non-coordinator ranks warm
  /// up as the in-flight "shard.migrate" batches deliver.
  MembershipChange add_endpoint();

  /// Take an endpoint out of the ring, migrate its files to their new
  /// groups, then tear the endpoint down (its transport slot detaches and
  /// in-flight traffic to it drops).  The id goes on the free-list for
  /// the next add_endpoint().  No-op if the endpoint is unknown or
  /// already removed.
  MembershipChange remove_endpoint(NodeId endpoint);

  /// Whether `endpoint` is currently alive (constructed or added, and not
  /// removed or crashed).
  [[nodiscard]] bool has_endpoint(NodeId endpoint) const {
    return endpoint < services_.size() && services_[endpoint] != nullptr;
  }

  // ------------------------------------------------------------------
  // Crash / restart (the fault model; see replica/checkpoint.hpp)
  // ------------------------------------------------------------------

  /// Crash-stop `endpoint` right now: its volatile state (every hosted
  /// replica) is dropped, no goodbye messages are sent, and the
  /// transport loses all in-flight traffic to or from it.  The endpoint
  /// keeps its ring points and group memberships — its ranks simply go
  /// dark (pushes to them drop; reads and writes route around them via
  /// the acting coordinator) until restart_endpoint().  Durable
  /// checkpoints survive.  No-op on an unknown/removed/crashed endpoint.
  CrashReport crash_endpoint(NodeId endpoint);

  /// Restart a crashed endpoint as a new incarnation on the same ring
  /// points.  Only its own dark rank in each of its groups is built, under
  /// the group's current epoch (the crash already lost every message the
  /// dead incarnation sent or was sent), and loaded with its latest
  /// durable checkpoint plus the own-writer continuation the survivors
  /// hold.  The survivors keep their replicas, agents, pending acks, write
  /// concerns, hints and records; they restart anti-entropy and push the
  /// new rank every write it never acked.  The checkpoint→crash gap is
  /// not streamed: anti-entropy heals it, O(delta).  No-op unless the
  /// endpoint is crashed, and also in the sim instant of its crash: that
  /// call returns an empty report and the endpoint stays crashed, so
  /// restart it at a later instant.
  RecoveryReport restart_endpoint(NodeId endpoint);

  /// Whether `endpoint` is crashed (down, awaiting restart_endpoint()).
  [[nodiscard]] bool is_crashed(NodeId endpoint) const {
    return crashed_at_.count(endpoint) > 0;
  }

  // ------------------------------------------------------------------
  // Hinted handoff (sloppy-quorum writes; see replica/hint_store.hpp)
  // ------------------------------------------------------------------

  /// The stand-in endpoint a sloppy-quorum write would park a hint for
  /// `target` at: the first live endpoint in the file's ring successor
  /// walk that is not a group member (Dynamo's "next-N healthy nodes").
  /// kNoNode when every candidate is down or in the group.
  [[nodiscard]] NodeId stand_in_for(FileId file, NodeId target) const;

  /// Durably park `update` for the crashed `target` at `stand_in`.  The
  /// hint counts toward the write's w and drains on restart_endpoint().
  void queue_hint(FileId file, NodeId target, NodeId stand_in,
                  const replica::Update& update);

  /// The hinted-handoff queue (inspectable in tests/benches).
  [[nodiscard]] const replica::HintStore& hint_store() const {
    return hints_;
  }

  /// The durable checkpoint store (inspectable in tests/benches).
  [[nodiscard]] replica::DurableStorage& durable_storage() {
    return storage_;
  }

  /// Run one checkpoint pass for `endpoint` right now (what the periodic
  /// timer fires; exposed so tests and benches control epochs exactly).
  /// The pass offers durable storage only the replicas on the endpoint's
  /// dirty list, in ascending file order: O(dirty replicas), not
  /// O(placed files).
  void checkpoint_endpoint(NodeId endpoint);

  /// Ids of the live endpoints, ascending.
  [[nodiscard]] std::vector<NodeId> endpoints() const;

  /// The incarnation `endpoint` is currently (or was last) alive with:
  /// 0 for a first life, n for the (n+1)-th life of a reused or restarted
  /// id.  An old life's traffic cannot reach the new one: a departed
  /// incarnation's groups were rebuilt under new epochs (GroupTransport
  /// fences on them), and a crashed one's traffic died with the crash.
  [[nodiscard]] std::uint32_t incarnation(NodeId endpoint) const {
    return endpoint < incarnations_.size() ? incarnations_[endpoint] : 0;
  }

  /// Ids currently on the free-list awaiting reuse (diagnostics/tests).
  [[nodiscard]] const std::set<NodeId>& free_ids() const { return free_ids_; }

  // ------------------------------------------------------------------
  // Placement
  // ------------------------------------------------------------------

  /// Open files `first .. first+count-1` on their replica groups.
  void place(FileId first, std::uint32_t count);

  /// Ensure one file is open on its whole group (idempotent); returns its
  /// record, nullptr on an empty ring.
  FileGroup* ensure_open(FileId file);

  /// Tear the file down on every group member.  Unknown files: no-op.
  bool close_file(FileId file);

  [[nodiscard]] bool is_placed(FileId file) const {
    return files_.count(file) > 0;
  }
  [[nodiscard]] std::size_t placed_files() const { return files_.size(); }

  /// The placed file's record; nullptr when the file is not placed.
  /// Valid until the file closes or migrates; a member's crash and
  /// restart only empty and rebuild that member's rank.
  [[nodiscard]] FileGroup* group(FileId file) {
    if (file < by_file_.size()) return by_file_[file];
    if (file < kDenseFileLimit) return nullptr;
    auto it = files_.find(file);
    return it == files_.end() ? nullptr : &it->second;
  }

  /// core::FileSinks: FileGroup::sink of the placed file's record;
  /// nullptr when the file is not placed.  Every message an endpoint
  /// receives resolves through here.
  [[nodiscard]] net::MessageHandler* sink(NodeId endpoint,
                                          FileId file) override {
    const FileGroup* g = group(file);
    return g == nullptr ? nullptr : g->sink(endpoint);
  }

  /// The placed file's current group members (rank order, coordinator
  /// first) without a ring walk; nullptr when the file is not placed.
  /// The vector stays valid until the file migrates or closes.
  [[nodiscard]] const std::vector<NodeId>* members_of(FileId file) const {
    auto it = files_.find(file);
    return it == files_.end() ? nullptr : &it->second.members;
  }

  /// The replica group the ring assigns `file` (primary first).
  [[nodiscard]] std::vector<NodeId> group_of(FileId file) const {
    return ring_.replicas(file, config_.replication);
  }

  /// The file's rank-0 endpoint, alive or not: the cached placement when
  /// the file is open (no ring walk on the hot routing path), the ring's
  /// answer otherwise.  kNoNode on an empty ring.  Which member actually
  /// coordinates while rank 0 is down is coordinator()'s answer.
  [[nodiscard]] NodeId coordinator_endpoint(FileId file) const {
    auto it = files_.find(file);
    if (it != files_.end()) return it->second.members.front();
    return ring_.primary(file);
  }

  // ------------------------------------------------------------------
  // Access
  // ------------------------------------------------------------------

  /// The file's replica on `endpoint` (a store-only core::IdeaNode);
  /// nullptr if that endpoint is not in the file's group or the file is
  /// not placed.
  [[nodiscard]] core::IdeaNode* replica(FileId file, NodeId endpoint);

  /// The file's replica at group rank `rank` (0 = coordinator).
  [[nodiscard]] core::IdeaNode* replica_at_rank(FileId file,
                                                std::uint32_t rank);

  /// The replication agent at group rank `rank` for a placed file.
  [[nodiscard]] ReplicaSyncAgent* sync_agent(FileId file,
                                             std::uint32_t rank);

  /// The acting coordinator's sync agent and endpoint id (see
  /// FileGroup::acting_rank); {nullptr, kNoNode} when the file is not
  /// placed or every member is down.
  [[nodiscard]] std::pair<ReplicaSyncAgent*, NodeId> coordinator(
      FileId file) {
    const FileGroup* g = group(file);
    if (g == nullptr) return {nullptr, kNoNode};
    const std::uint32_t rank = g->acting_rank();
    if (rank == g->ranks.size()) return {nullptr, kNoNode};
    return {g->ranks[rank].sync.get(), g->members[rank]};
  }

  /// True iff every group replica holds byte-identical canonical contents.
  [[nodiscard]] bool converged(FileId file);

  /// The endpoint's message handler (what its transport slot delivers
  /// to).  Precondition: has_endpoint(endpoint); a removed or crashed
  /// endpoint has no service.
  [[nodiscard]] core::IdeaService& service(NodeId endpoint) {
    return *services_.at(endpoint);
  }
  [[nodiscard]] std::uint32_t size() const {
    return static_cast<std::uint32_t>(services_.size());
  }

  /// The policy-driven request router every session operation funnels
  /// through (replica selection, freshness hints, migration awareness).
  [[nodiscard]] RequestRouter& router() { return *router_; }
  /// The adaptive consistency control loop; nullptr when
  /// config.adapt.enabled is false (the default).
  [[nodiscard]] adapt::ConsistencyController* controller() {
    return controller_.get();
  }
  /// The deployment's observability surface; nullptr when
  /// config.observability.enabled is false.
  [[nodiscard]] obs::Observability* obs() { return obs_.get(); }
  [[nodiscard]] HashRing& ring() { return ring_; }
  [[nodiscard]] const HashRing& ring() const { return ring_; }
  [[nodiscard]] sim::Simulator& sim() { return sim_; }
  /// The latency model — the router's replica-selection distance oracle.
  [[nodiscard]] sim::PlanetLabLatency& latency() { return *latency_; }
  [[nodiscard]] const ShardedClusterConfig& config() const {
    return config_;
  }

  /// The transport endpoints attach to (batching decorator when enabled).
  [[nodiscard]] net::Transport& edge() {
    return batching_ ? static_cast<net::Transport&>(*batching_)
                     : *sim_transport_;
  }
  /// Null when batching is disabled.
  [[nodiscard]] net::BatchingTransport* batching() {
    return batching_.get();
  }
  /// The underlying simulated wire — fault-injection hooks (drop windows,
  /// partitions) live here.
  [[nodiscard]] net::SimTransport& transport() { return *sim_transport_; }
  /// What actually hit the simulated wire (envelopes after batching).
  [[nodiscard]] const net::MessageCounters& wire_counters() const {
    return sim_transport_->counters();
  }

  // ------------------------------------------------------------------
  // Time
  // ------------------------------------------------------------------

  void run_for(SimDuration d) { sim_.run_for(d); }
  void run_until(SimTime t) { sim_.run_until(t); }

 private:
  /// Record the file's group on `members` (rank order as given) under a
  /// new group epoch and build each live member's rank with build_rank().
  /// The file must not currently be placed.  Members whose service is
  /// down (crashed) get dark ranks: the group keeps its shape, protocol
  /// traffic to them drops at the transport, and restart_endpoint()
  /// builds each one when its member returns.
  FileGroup& open_group(FileId file, std::vector<NodeId> members);

  /// Build the empty replica at dark `rank` of `group` (its member alive)
  /// under the group's epoch: transport, store-only node and sync agent,
  /// wired to the rank's freshness hint, its endpoint's checkpoint dirty
  /// list (a new replica is always dirty) and anti-entropy.  The caller
  /// then tells the group's live agents their star (announce_star).
  GroupRank& build_rank(FileId file, FileGroup& group, std::uint32_t rank);

  /// Tell every live agent of `group` its acting coordinator and its dark
  /// ranks, which shape its anti-entropy rounds
  /// (ReplicaSyncAgent::set_star): once a group is placed, and after each
  /// crash and restart of a member.
  void announce_star(const FileGroup& group);

  /// Drop a placed file's index entry and erase its record, which stops
  /// its traffic at every member.  Leaves parked hints alone.
  void teardown_group(std::unordered_map<FileId, FileGroup>::iterator it);

  /// Placed files in ascending id order, restricted to the groups that
  /// contain `member` unless it is kNoNode.
  [[nodiscard]] std::vector<FileId> sorted_placed(
      NodeId member = kNoNode) const;

  /// Arm/cancel the per-endpoint periodic checkpoint timer.
  void arm_checkpoint_timer(NodeId endpoint);
  void cancel_checkpoint_timer(NodeId endpoint);

  /// Tear down and rebuild every placed file whose replica group differs
  /// between `before` and the current ring, streaming state to the new
  /// group; fills the migration counters of `change`.
  void migrate_changed_groups(const HashRing& before,
                              MembershipChange& change);

  ShardedClusterConfig config_;
  /// Declared before everything else: sync agents, the router and the
  /// transports hold Meters/pointers into it, so it must be destroyed last.
  std::unique_ptr<obs::Observability> obs_;
  sim::Simulator sim_;
  std::unique_ptr<sim::PlanetLabLatency> latency_;
  std::unique_ptr<net::SimTransport> sim_transport_;
  std::unique_ptr<net::BatchingTransport> batching_;
  HashRing ring_;
  /// The last group epoch handed out (see GroupTransport's fence).  Every
  /// open_group() takes the next one, so in-flight traffic from a
  /// torn-down group can never reach its replacement replicas.
  std::uint32_t last_epoch_ = 0;
  /// Largest file id mirrored into the dense index (8 bytes per slot).
  static constexpr FileId kDenseFileLimit = 1u << 20;

  /// Records of the placed files.  Node-based, so the index's pointers
  /// stay valid while other files come and go.
  std::unordered_map<FileId, FileGroup> files_;
  /// Dense file id -> record index for ids below kDenseFileLimit (null =
  /// not placed); group() finds larger ids in files_.
  std::vector<FileGroup*> by_file_;
  std::vector<std::unique_ptr<core::IdeaService>> services_;
  /// Per-slot incarnation counters, parallel to services_ (0 = first
  /// life).  Bumped when add_endpoint() reuses an id off the free-list.
  std::vector<std::uint32_t> incarnations_;
  /// Ids of removed endpoints awaiting reuse, smallest first.
  std::set<NodeId> free_ids_;
  /// Crashed endpoints and when each went down.  Crashed ids stay out of
  /// free_ids_: their ring points and group memberships persist until
  /// restart.
  std::map<NodeId, SimTime> crashed_at_;
  replica::DurableStorage storage_;
  /// Hinted-handoff queue (durable medium at the stand-ins, modeled
  /// cluster-wide like storage_).
  replica::HintStore hints_;
  /// What an endpoint's checkpoint passes work from.
  struct EndpointCheckpoints {
    std::uint64_t timer = 0;  ///< Periodic pass timer (0 = none armed).
    /// Placed groups that list the endpoint as a member.  A live endpoint
    /// has no dark rank, so this is how many replicas it hosts.
    std::uint32_t hosted = 0;
    /// Files whose replica here was built or mutated since the last
    /// pass, fed by the ranks' sync agents; unsorted, and a file may
    /// repeat when its replica was built again in between.
    std::vector<FileId> dirty;
  };
  /// Per endpoint id.  A deque, so the agents' pointers to `dirty` stay
  /// valid while endpoints join.
  std::deque<EndpointCheckpoints> checkpoints_;
  std::unique_ptr<RequestRouter> router_;
  /// Null unless config.adapt.enabled.
  std::unique_ptr<adapt::ConsistencyController> controller_;
};

}  // namespace idea::shard
