#pragma once
/// \file service.hpp
/// \brief Multi-file IDEA endpoint: the per-file message demultiplexer.
///
/// §4.1: "because consistency is associated with a single file, the concept
/// of top/bottom layer is also associated with a given shared file —
/// different files may have different top layers — and different top layers
/// do not interfere with one another.  For example, if a user joins
/// multiple virtual white boards, each white board is treated separately
/// and independently."
///
/// IdeaService is what one endpoint does for the files it hosts: it claims
/// the endpoint's transport slot once and hands each incoming message to
/// the handler routed for the message's file id, so every file's protocol
/// stack runs separately.  It owns no stack: whoever builds a file's
/// IdeaNode (ShardedCluster keeps them in the file's group record) routes
/// the file here and unroutes it before the node goes away.

#include <unordered_map>
#include <vector>

#include "net/transport.hpp"
#include "util/ids.hpp"

namespace idea::core {

class IdeaService final : public net::MessageHandler {
 public:
  IdeaService(NodeId self, net::Transport& transport, std::uint64_t seed)
      : self_(self), transport_(transport), seed_(seed) {
    transport_.attach(self_, this);
  }

  ~IdeaService() override { transport_.detach(self_); }

  IdeaService(const IdeaService&) = delete;
  IdeaService& operator=(const IdeaService&) = delete;

  /// Deliver `file`'s messages to `sink` (borrowed; replaces any earlier
  /// route for the file).
  void route(FileId file, net::MessageHandler* sink) {
    if (file >= kDenseFileLimit) {
      sparse_[file] = sink;
      return;
    }
    if (file >= sinks_.size()) sinks_.resize(file + 1, nullptr);
    sinks_[file] = sink;
  }

  /// Stop delivering `file`'s messages.  Unknown ids are a no-op: clearing
  /// in place only, so a stray unroute(huge_id) cannot inflate the dense
  /// array.
  void unroute(FileId file) {
    if (file < sinks_.size()) {
      sinks_[file] = nullptr;
    } else {
      sparse_.erase(file);
    }
  }

  /// The seed this endpoint gives its protocol stack for `file`: distinct
  /// per file and per endpoint, fixed for a fixed service seed.
  [[nodiscard]] std::uint64_t stack_seed(FileId file) const {
    return mix64(seed_ ^ (0xF11EULL + file));
  }

  [[nodiscard]] NodeId id() const { return self_; }

  /// Route by the message's file id; messages for files with no route are
  /// dropped (this endpoint is a bottom-layer bystander for them at most,
  /// and gossip dedup tolerates the loss).
  ///
  /// This runs once per delivered message on an endpoint hosting hundreds
  /// of files, so small file ids resolve through a dense sink array (one
  /// indexed load); only large/sparse ids fall back to the hash map.
  void on_message(const net::Message& msg) override {
    net::MessageHandler* sink = nullptr;
    if (msg.file < sinks_.size()) {
      sink = sinks_[msg.file];
    } else if (auto it = sparse_.find(msg.file); it != sparse_.end()) {
      sink = it->second;
    }
    if (sink != nullptr) sink->on_message(msg);
  }

 private:
  /// Largest file id mirrored into the dense sink array (8 bytes/slot).
  static constexpr FileId kDenseFileLimit = 1u << 20;

  NodeId self_;
  net::Transport& transport_;
  std::uint64_t seed_;
  std::vector<net::MessageHandler*> sinks_;  ///< Dense file -> sink route.
  /// Routes of ids >= kDenseFileLimit.  Nothing iterates this map, so its
  /// order is irrelevant to determinism.
  std::unordered_map<FileId, net::MessageHandler*> sparse_;
};

}  // namespace idea::core
