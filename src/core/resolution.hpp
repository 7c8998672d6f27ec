#pragma once
/// \file resolution.hpp
/// \brief Background and active inconsistency resolution (§4.5).
///
/// A resolution *round* is the paper's phase 2: the initiator sequentially
/// visits every top-layer member, collecting each member's extended version
/// vector plus the updates the initiator is missing; it then applies the
/// configured policy to pick a winner, computes per-member deltas (missing
/// updates + conflict-loser invalidations) and commits them in parallel.
/// After a round every participant holds the same update set and the same
/// invalidation marks, i.e. identical canonical contents.
///
/// *Active* resolution prepends the paper's phase 1: a parallel
/// call-for-attention; only when every member acknowledges that nobody else
/// is initiating does phase 2 start.  Competing initiators back off for a
/// random interval and cancel entirely if they observe another initiator's
/// call while waiting (§4.5.2).  The protocol's waits are constants
/// (resolution.cpp): 2 s for attention acks, 3 s for commit acks, and up
/// to 8 back-offs of 100-800 ms.
///
/// *Background* resolution runs phase 2 directly on a timer.
///
/// While a node initiates or participates in a round, its local writes are
/// blocked (the paper's responsiveness trade-off; the booking application's
/// underselling comes exactly from this window).

#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/policy.hpp"
#include "net/transport.hpp"
#include "replica/store.hpp"
#include "util/rng.hpp"

namespace idea::core {

/// The tunable parts of a resolution round; its attention and commit
/// waits and its back-off are constants (see the file comment).
struct ResolutionConfig {
  PolicyContext policy;
  /// Simulated local CPU cost of dispatching one protocol message; phase 1's
  /// measured cost in Table 2 is k messages' dispatch work.
  SimDuration cpu_per_send = usec(150);
  /// Peer-side processing before answering a collect (version comparison,
  /// log lookup).
  SimDuration collect_processing = msec(8);
  /// Per-peer wait before skipping an unresponsive member in phase 2.
  SimDuration collect_timeout = sec(3);
  /// Ablation: visit members in parallel during phase 2 (the paper notes
  /// this option; default is the paper's sequential design).
  bool parallel_collect = false;
};

/// Timing/outcome record of one round, consumed by Table 2 / Figure 9.
struct RoundStats {
  bool active = false;      ///< Active (two-phase) vs background round.
  bool succeeded = false;   ///< Commit was sent.
  bool suppressed = false;  ///< Cancelled in favour of another initiator.
  SimTime started_at = 0;
  SimDuration phase1_dispatch = 0;  ///< Local cost of sending the calls.
  SimDuration phase1_total = 0;     ///< Until the last ack arrived.
  SimDuration phase2_collect = 0;   ///< Sequential (or parallel) traversal.
  SimDuration commit_dispatch = 0;  ///< Local cost of sending commits.
  SimDuration total = 0;            ///< Until the last done-ack arrived.
  std::size_t participants = 0;     ///< Top-layer size including initiator.
  int backoffs = 0;
  NodeId winner = kNoNode;
  std::size_t invalidated = 0;      ///< Conflict-loser updates cleared.
  std::size_t updates_shipped = 0;  ///< Updates pushed in commits.
};

class ResolutionManager final : public net::MessageHandler {
 public:
  using RoundCallback = std::function<void(const RoundStats&)>;

  ResolutionManager(NodeId self, FileId file, net::Transport& transport,
                    replica::ReplicaStore& store,
                    std::function<std::vector<NodeId>()> top_layer,
                    ResolutionConfig config, std::uint64_t seed);
  ~ResolutionManager() override;

  ResolutionManager(const ResolutionManager&) = delete;
  ResolutionManager& operator=(const ResolutionManager&) = delete;

  /// Start an active (user-demanded) resolution.  Returns false if a round
  /// is already in progress locally.
  bool start_active();

  /// Start a background round (no call-for-attention).  Returns false if a
  /// round is already in progress locally.
  bool start_background();

  /// True while local writes must be blocked (initiating phase 2 or
  /// participating between collect and commit).
  [[nodiscard]] bool busy() const;

  /// Fires once per initiated round with its stats.
  void set_round_callback(RoundCallback cb) { on_round_ = std::move(cb); }

  void on_message(const net::Message& msg) override;

  [[nodiscard]] std::uint64_t rounds_initiated() const { return initiated_; }
  [[nodiscard]] std::uint64_t rounds_succeeded() const { return succeeded_; }

  static const net::MsgType kAttnType;          ///< "resolve.attn"
  static const net::MsgType kAttnAckType;       ///< "resolve.attn_ack"
  static const net::MsgType kCollectType;       ///< "resolve.collect"
  static const net::MsgType kCollectReplyType;  ///< "resolve.collect_reply"
  static const net::MsgType kCommitType;        ///< "resolve.commit"
  static const net::MsgType kDoneType;          ///< "resolve.done"

 private:
  enum class State { kIdle, kAttnWait, kBackoff, kCollect, kCommitWait };

  void begin_round(bool active);
  void send_attn();
  void handle_attn(const net::Message& msg);
  void handle_attn_ack(const net::Message& msg);
  void enter_backoff();
  void begin_collect();
  void visit_next_member();
  void handle_collect(const net::Message& msg);
  void handle_collect_reply(const net::Message& msg);
  void collect_member_done(NodeId member,
                           std::optional<vv::ExtendedVersionVector> evv);
  void maybe_finish_collect();
  void commit_round();
  void handle_commit(const net::Message& msg);
  void handle_done(const net::Message& msg);
  void finish_round(bool succeeded);
  void apply_commit_locally(
      const std::vector<replica::Update>& updates,
      const std::vector<std::pair<NodeId, std::uint64_t>>& invalidate);

  NodeId self_;
  FileId file_;
  net::Transport& transport_;
  replica::ReplicaStore& store_;
  std::function<std::vector<NodeId>()> top_layer_;
  ResolutionConfig config_;
  Rng rng_;

  // --- initiator state ---
  State state_ = State::kIdle;
  std::uint64_t round_id_ = 0;
  std::uint64_t round_counter_ = 0;
  RoundStats stats_;
  std::vector<NodeId> members_;       ///< Peers to visit (self excluded).
  std::size_t next_member_ = 0;
  std::size_t acks_pending_ = 0;
  bool ack_failed_ = false;
  Gathered gathered_;                 ///< Snapshots incl. self.
  std::size_t collect_outstanding_ = 0;
  std::size_t done_pending_ = 0;
  std::uint64_t timer_ = 0;           ///< Backoff / timeout timer.
  SimTime phase2_started_ = 0;

  // --- participant state ---
  std::uint64_t participating_round_ = 0;  ///< 0 = free.
  std::uint64_t participant_timer_ = 0;

  RoundCallback on_round_;
  std::uint64_t initiated_ = 0;
  std::uint64_t succeeded_ = 0;
};

}  // namespace idea::core
