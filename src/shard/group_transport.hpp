#pragma once
/// \file group_transport.hpp
/// \brief Per-file transport adapter mapping replica-group ranks to real
///        endpoint ids.
///
/// A replica group's protocol (the ReplicaSyncAgent's pushes, digests and
/// repairs, and the writer ids in every update) addresses a dense id space
/// 0..k-1.  A consistent-hash replica group, however, is an arbitrary
/// subset of endpoints, e.g. {3, 17, 29}.  GroupTransport bridges the two:
/// each group member's replica runs with its *rank* within the group as
/// its node id, outbound messages have rank ids translated to real
/// endpoint ids, and inbound messages are translated back before being
/// handed to the rank's sink (its sync agent).  Latency, loss and clock skew
/// still come from the real endpoint pair, so the group inherits the
/// simulated topology faithfully.
///
/// A GroupTransport keeps no message accounting: its counters() stay
/// empty.  Every send passes to the inner transport, which counts it.

#include <vector>

#include "net/transport.hpp"

namespace idea::shard {

class GroupTransport final : public net::Transport,
                             public net::MessageHandler {
 public:
  /// `inner` is the endpoint-id-space transport (borrowed; must outlive
  /// this adapter *and* the agent using it, which cancels its timers
  /// through here on destruction).  `members` maps rank -> endpoint id and
  /// must be identical on every member, in the same order.  `epoch` fences
  /// group incarnations: outbound messages are stamped with it and inbound
  /// messages from another epoch are dropped, so traffic still in flight
  /// when a migration rebuilds the group cannot reach the new stacks under
  /// remapped ranks.  All members of one incarnation must share the epoch.
  GroupTransport(net::Transport& inner, std::vector<NodeId> members,
                 std::uint32_t self_rank, std::uint32_t epoch = 0);

  /// Where translated inbound messages go (the rank's sync agent).  Set
  /// after the agent is constructed; messages arriving earlier drop.
  void set_sink(net::MessageHandler* sink) { sink_ = sink; }

  [[nodiscard]] const std::vector<NodeId>& members() const {
    return members_;
  }
  [[nodiscard]] std::uint32_t self_rank() const { return self_rank_; }

  /// Rank of a real endpoint id within the group; kNoNode if absent.
  [[nodiscard]] NodeId rank_of(NodeId endpoint) const;

  // --- net::Transport (rank id space) ---------------------------------
  void attach(NodeId, net::MessageHandler*) override {}  // service-managed
  void detach(NodeId) override {}
  void send(net::Message msg) override;
  [[nodiscard]] SimTime now() const override { return inner_.now(); }
  [[nodiscard]] SimTime local_time(NodeId rank) const override;
  std::uint64_t call_after(SimDuration delay,
                           std::function<void()> fn) override {
    return inner_.call_after(delay, std::move(fn));
  }
  std::uint64_t call_every(SimDuration period,
                           std::function<void()> fn) override {
    return inner_.call_every(period, std::move(fn));
  }
  void cancel_call(std::uint64_t handle) override {
    inner_.cancel_call(handle);
  }

  // --- net::MessageHandler (endpoint id space) --------------------------
  /// Inbound from the endpoint's IdeaService, which delivers here when its
  /// deployment names this rank as the file's sink (core::FileSinks).
  void on_message(const net::Message& msg) override;

 private:
  net::Transport& inner_;
  std::vector<NodeId> members_;  ///< rank -> endpoint id
  std::uint32_t self_rank_;
  std::uint32_t epoch_;
  net::MessageHandler* sink_ = nullptr;
};

}  // namespace idea::shard
