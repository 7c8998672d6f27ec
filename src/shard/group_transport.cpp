#include "shard/group_transport.hpp"

namespace idea::shard {

GroupTransport::GroupTransport(net::Transport& inner,
                               std::vector<NodeId> members,
                               std::uint32_t self_rank, std::uint32_t epoch)
    : inner_(inner),
      members_(std::move(members)),
      self_rank_(self_rank),
      epoch_(epoch) {}

NodeId GroupTransport::rank_of(NodeId endpoint) const {
  for (std::size_t r = 0; r < members_.size(); ++r) {
    if (members_[r] == endpoint) return static_cast<NodeId>(r);
  }
  return kNoNode;
}

void GroupTransport::send(net::Message msg) {
  // Protocol agents address ranks; out of range means a misconfigured
  // group size — drop rather than alias another endpoint.
  if (msg.to >= members_.size() || msg.from >= members_.size()) return;
  msg.from = members_[msg.from];
  msg.to = members_[msg.to];
  msg.epoch = epoch_;
  inner_.send(std::move(msg));
}

SimTime GroupTransport::local_time(NodeId rank) const {
  if (rank < members_.size()) return inner_.local_time(members_[rank]);
  return inner_.now();
}

void GroupTransport::on_message(const net::Message& msg) {
  if (sink_ == nullptr) return;
  // Epoch fence: a message sent before a migration rebuilt this group
  // must not reach the new replicas — the sender's rank
  // mapping (and possibly the whole protocol state it speaks for) belongs
  // to the previous incarnation.
  if (msg.epoch != epoch_) return;
  const NodeId from_rank = rank_of(msg.from);
  if (from_rank == kNoNode) return;  // sender is not a group member
  net::Message translated = msg;
  translated.from = from_rank;
  translated.to = self_rank_;
  sink_->on_message(translated);
}

}  // namespace idea::shard
