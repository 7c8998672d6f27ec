#pragma once
/// \file baseline.hpp
/// \brief Comparator consistency protocols for the Figure 2 tradeoff.
///
/// The paper positions IDEA between optimistic consistency (fast, weak) and
/// strong consistency (slow, strict) and cites TACT as the bounded middle
/// ground.  To regenerate Figure 2 as a *measured* plot we implement all
/// three against the same ReplicaStore/Transport substrate:
///
///  * OptimisticNode — Bayou-style anti-entropy: writes commit locally;
///    a periodic timer push-pulls updates with one random peer.
///  * StrongNode — primary-copy eager replication: writes are forwarded to
///    the primary, which sequences and synchronously fans them out; the
///    write completes only after every replica acknowledged.
///  * TactNode — error-bounded push: writes commit locally, but each node
///    bounds how many of its updates any peer has not seen (order-error
///    bound) and how long they may remain unseen (staleness bound); when a
///    bound would be exceeded it pushes synchronously.

#include <functional>
#include <optional>
#include <vector>

#include "net/transport.hpp"
#include "replica/store.hpp"
#include "util/rng.hpp"

namespace idea::baseline {

/// Common surface the tradeoff bench drives.
class BaselineNode : public net::MessageHandler {
 public:
  BaselineNode(NodeId self, FileId file, net::Transport& transport)
      : self_(self), file_(file), transport_(transport),
        store_(self, file) {}
  ~BaselineNode() override = default;

  /// Issue a write; `done` fires when the protocol considers it committed
  /// (immediately for optimistic/TACT, after full fan-out for strong).
  virtual void write(std::string content, double meta_delta,
                     std::function<void()> done) = 0;

  /// Arm periodic machinery, if any.
  virtual void start() {}

  [[nodiscard]] replica::ReplicaStore& store() { return store_; }
  [[nodiscard]] const replica::ReplicaStore& store() const { return store_; }
  [[nodiscard]] NodeId id() const { return self_; }

 protected:
  NodeId self_;
  FileId file_;
  net::Transport& transport_;
  replica::ReplicaStore store_;
};

// ---------------------------------------------------------------------------

struct OptimisticParams {
  SimDuration anti_entropy_period = sec(10);
  std::uint32_t nodes = 0;
};

/// Bayou-style optimistic replication [24]: local commit + periodic random
/// push-pull anti-entropy sessions.
class OptimisticNode final : public BaselineNode {
 public:
  OptimisticNode(NodeId self, FileId file, net::Transport& transport,
                 OptimisticParams params, std::uint64_t seed);
  ~OptimisticNode() override;

  void write(std::string content, double meta_delta,
             std::function<void()> done) override;
  void start() override;
  void on_message(const net::Message& msg) override;

  static const net::MsgType kRequestType;  ///< "optimistic.request"
  static const net::MsgType kPushType;     ///< "optimistic.push"
  static const net::MsgType kPullType;     ///< "optimistic.pull"

 private:
  void anti_entropy_round();

  OptimisticParams params_;
  Rng rng_;
  std::uint64_t timer_ = 0;
};

// ---------------------------------------------------------------------------

struct StrongParams {
  NodeId primary = 0;
  std::uint32_t nodes = 0;
};

/// Primary-copy strong consistency [1-style]: a total order at the primary,
/// synchronous fan-out, client completion after all replica acks.
class StrongNode final : public BaselineNode {
 public:
  StrongNode(NodeId self, FileId file, net::Transport& transport,
             StrongParams params);
  ~StrongNode() override;

  void write(std::string content, double meta_delta,
             std::function<void()> done) override;
  void on_message(const net::Message& msg) override;

  static const net::MsgType kSubmitType;      ///< "strong.submit"
  static const net::MsgType kReplicateType;   ///< "strong.replicate"
  static const net::MsgType kReplicaAckType;  ///< "strong.replica_ack"
  static const net::MsgType kCommittedType;   ///< "strong.committed"

 private:
  struct PendingCommit {
    NodeId origin = kNoNode;
    std::uint64_t client_tag = 0;
    std::size_t acks_needed = 0;
  };

  void primary_apply_and_replicate(NodeId origin, std::uint64_t client_tag,
                                   std::string content, double meta_delta);

  StrongParams params_;
  std::uint64_t next_tag_ = 1;
  std::unordered_map<std::uint64_t, std::function<void()>> local_waiting_;
  // Primary-side: update key (writer,seq hashed) -> pending fan-out.
  std::unordered_map<std::uint64_t, PendingCommit> pending_;
  std::uint64_t next_commit_id_ = 1;
};

// ---------------------------------------------------------------------------

struct TactParams {
  std::uint32_t nodes = 0;
  /// Push once this many of our updates are unseen by some peer
  /// (order-error bound).
  std::uint32_t order_bound = 3;
  /// ... or once the oldest unseen update is older than this (staleness
  /// bound).
  SimDuration staleness_bound = sec(15);
  SimDuration check_period = sec(1);
};

/// TACT-style bounded-inconsistency push [26], simplified to one conit per
/// file with order and staleness bounds.
class TactNode final : public BaselineNode {
 public:
  TactNode(NodeId self, FileId file, net::Transport& transport,
           TactParams params);
  ~TactNode() override;

  void write(std::string content, double meta_delta,
             std::function<void()> done) override;
  void start() override;
  void on_message(const net::Message& msg) override;

  static const net::MsgType kPushType;  ///< "tact.push"

 private:
  void check_bounds();
  void push_to(NodeId peer);

  TactParams params_;
  /// What each peer has acknowledged of *our* updates (seq high-water).
  std::vector<std::uint64_t> peer_seen_;
  /// Stamp of our oldest update not yet seen by the slowest peer.
  std::uint64_t timer_ = 0;
};

}  // namespace idea::baseline
